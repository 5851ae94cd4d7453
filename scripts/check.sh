#!/bin/sh
# check.sh — the PR gate: vet, build, race-enabled tests (including the
# tiny-tier smoke of every `go run ./bench` workload), fixed-seed golden
# smokes over the CLIs and the daemon, and an allocs/op gate on route
# computation. The race detector is mandatory because the
# mapping pipeline is concurrent: every catchment, assignment, and
# experiment report must be identical at workers=1 and workers=N, and
# the determinism tests only mean something when the run is race-free.
#
#   ./scripts/check.sh          # full gate
#   VP_CHECK_SHORT=1 ./scripts/check.sh   # short-mode tests (quick loop)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l . 2>/dev/null)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== mdlint (intra-repo doc links)"
./scripts/mdlint.sh

echo "== go build ./..."
go build ./...

if [ "${VP_CHECK_SHORT:-}" = "1" ]; then
	echo "== go test -race -short ./..."
	go test -race -short ./...
else
	echo "== go test -race ./..."
	go test -race ./...
fi

# Faults smoke: a fixed-seed lossy run must reproduce its golden
# response-rate line exactly — the fault layer's determinism contract
# (same profile seed => same drops at any worker count) collapsed to one
# grep. Recalibrate the golden only when the fault model itself changes.
echo "== faults smoke (tiny, moderate profile, fixed seed)"
want="response rate: 51.9% (2061 of 3974 targets mapped)"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 \
	-faults moderate -fault-seed 9 -retries 2 | grep "^response rate:")
if [ "$got" != "$want" ]; then
	echo "faults smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Monitor smoke: a fixed-seed sampled monitoring campaign with an
# operator prepend at epoch 1 must reproduce its golden drift summary —
# flip count, event count, and probe volume — exactly. This pins the
# whole monitoring stack: subset sweeps, stratified escalation, drift
# classification. Recalibrate only when the monitor or fold semantics
# deliberately change.
echo "== monitor smoke (tiny, sampled, prepend at epoch 1)"
want="monitor: epochs=5 events=3 flips=1230 probes=12188 baseline=3974"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 \
	-monitor -epochs 5 -sample 0.25 -prepend 2,0 | grep "^monitor:")
if [ "$got" != "$want" ]; then
	echo "monitor smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Predict smoke: the fixed-seed ext-predict experiment must reproduce
# its golden per-cause precision/recall line exactly — the probe-free
# predictor's exactness contract (triple diff, observable-flip filter,
# alias closure) and the fused monitor's stable-epoch saving collapsed
# to one grep. Recalibrate only when the predictor or the dataplane's
# serving function deliberately changes.
echo "== predict smoke (ext-predict, tiny, fixed seed)"
want="predict: prepend P=1.000 R=1.000 withdraw P=1.000 R=1.000 tie-break P=1.000 R=1.000 saving=3.9x"
got=$(go run ./cmd/vp-experiments -run ext-predict -size tiny -seed 7 \
	| grep "^predict: ")
if [ "$got" != "$want" ]; then
	echo "predict smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Obsv smoke: a fixed-seed run with -metrics must reproduce its golden
# counter line exactly AND still print the exact same report as without
# the flag. probes_sent is pinned because it is worker-invariant (unlike
# route-cache hits, which depend on scheduling); it collapses the whole
# instrumentation path — registry wiring, per-round publishing, summary
# rendering — to one grep. Recalibrate only when the sweep itself changes.
echo "== obsv smoke (tiny, fixed seed, -metrics)"
want="counter probes_sent 3974"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 -metrics \
	| grep "^counter probes_sent ")
if [ "$got" != "$want" ]; then
	echo "obsv smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Playbook smoke: a fixed-seed plan search must reproduce its golden
# "chosen plan" line exactly — the playbook's determinism contract
# (candidate order, delta-path route prediction, scoring, tie-breaks)
# collapsed to one grep. Recalibrate only when the grammar or scoring
# deliberately changes.
echo "== playbook smoke (tiny, concentrated 3x, fixed seed)"
want="chosen plan: lax+1 (target lax: util 1.47 -> 0.41, absorption 70%)"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 -playbook \
	-attack shape=concentrated,volume=3x,ases=12,seed=3 -capacity 2,4.5 \
	| grep "^chosen plan:")
if [ "$got" != "$want" ]; then
	echo "playbook smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Internet-tier smoke: the columnar sweep core must map ~1.2M blocks
# end to end (topology gen, convergence, sweep, fold, streaming v4
# dataset save) inside a peak-RSS budget, reproduce its golden
# response-rate line exactly, and read the saved file back through
# vp-dataset info and diff — the scale contract of DESIGN.md §12.
# Peak memory comes from /usr/bin/time -v where present, else from
# polling /proc/<pid>/status VmHWM; if neither works the smoke still
# runs, only the budget check is skipped.
echo "== internet-tier smoke (1.2M blocks, peak-RSS budget)"
BUDGET_KB=1048576 # 1 GiB; a map-keyed fold or buffered writer blows well past this
VPDS_TMP=$(mktemp /tmp/vp-internet-XXXXXX.vpds)
go build -o /tmp/vp-check-bin ./cmd/verfploeter
PEAK_KB=""
if command -v /usr/bin/time >/dev/null 2>&1 && /usr/bin/time -v true >/dev/null 2>&1; then
	/usr/bin/time -v /tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt 2>/tmp/vp-internet-time.txt
	PEAK_KB=$(awk '/Maximum resident set size/{print $NF}' /tmp/vp-internet-time.txt)
elif [ -d /proc ]; then
	/tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt &
	VP_PID=$!
	PEAK_KB=0
	while kill -0 "$VP_PID" 2>/dev/null; do
		HWM=$(awk '/VmHWM/{print $2}' "/proc/$VP_PID/status" 2>/dev/null || true)
		if [ -n "${HWM:-}" ] && [ "$HWM" -gt "$PEAK_KB" ]; then PEAK_KB=$HWM; fi
		sleep 0.1
	done
	wait "$VP_PID"
else
	/tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt
fi
want="response rate: 48.7% (602667 of 1236283 targets mapped)"
got=$(grep "^response rate:" /tmp/vp-internet-out.txt)
if [ "$got" != "$want" ]; then
	echo "internet smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
if [ ! -s "$VPDS_TMP" ]; then
	echo "internet smoke FAILED: dataset not written" >&2
	exit 1
fi
if [ -n "${PEAK_KB:-}" ] && [ "$PEAK_KB" -gt 0 ]; then
	if [ "$PEAK_KB" -gt "$BUDGET_KB" ]; then
		echo "internet smoke FAILED: peak RSS ${PEAK_KB}kB > budget ${BUDGET_KB}kB" >&2
		exit 1
	fi
	echo "$got (peak RSS ${PEAK_KB}kB, budget ${BUDGET_KB}kB)"
else
	echo "$got (peak RSS unavailable, budget check skipped)"
fi
# Read the file back: the resident reader must index all 602,667
# entries and report the same response rate, and a self-diff must find
# every block stable.
go build -o /tmp/vp-check-dataset ./cmd/vp-dataset
got=$(/tmp/vp-check-dataset info "$VPDS_TMP" | grep "^response rate:")
if [ "$got" != "$want" ]; then
	echo "internet read-back FAILED (info):" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
want="stable blocks              602667"
got=$(/tmp/vp-check-dataset diff "$VPDS_TMP" "$VPDS_TMP" | grep "^stable blocks")
if [ "$got" != "$want" ]; then
	echo "internet read-back FAILED (self-diff):" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "read-back OK (info response rate, self-diff $got)"
rm -f "$VPDS_TMP" /tmp/vp-check-bin /tmp/vp-check-dataset

# vp-server smoke: start the daemon on a loopback port with the same
# fixed-seed tiny tenant the other smokes use, and pin the three read
# endpoints — healthz, lookup (an annotated mapped address), sites —
# as exact JSON goldens: the snapshot path is deterministic end to end
# (same catchment, same annotations, same load table). Then SIGTERM and
# require a clean drain: exit 0, the "clean shutdown" line, and the
# tenant's series file flushed on the way out. Recalibrate the goldens
# only when the measurement or annotation semantics deliberately change.
echo "== vp-server smoke (loopback, fixed-seed tenant, SIGTERM drain)"
SRV_DIR=$(mktemp -d /tmp/vp-server-XXXXXX)
go build -o "$SRV_DIR/vp-server" ./cmd/vp-server
"$SRV_DIR/vp-server" -addr 127.0.0.1:0 \
	-tenant name=t1,scenario=b-root,size=tiny,seed=7 \
	-save-series-dir "$SRV_DIR/series" >"$SRV_DIR/out.txt" 2>&1 &
SRV_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(awk '/^listening on http/{sub("http://","",$3); print $3; exit}' "$SRV_DIR/out.txt" 2>/dev/null || true)
	[ -n "$ADDR" ] && break
	if ! kill -0 "$SRV_PID" 2>/dev/null; then
		echo "vp-server smoke FAILED: daemon died before listening" >&2
		cat "$SRV_DIR/out.txt" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "vp-server smoke FAILED: no listening line" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
srv_golden() { # srv_golden NAME URL WANT
	want="$3"
	got=$(curl -fsS "http://$ADDR$2") || {
		echo "vp-server smoke FAILED: curl $2" >&2
		exit 1
	}
	if [ "$got" != "$want" ]; then
		echo "vp-server smoke FAILED ($1):" >&2
		echo "  want: $want" >&2
		echo "  got:  $got" >&2
		exit 1
	fi
	echo "$1 OK"
}
srv_golden healthz "/healthz" \
	'{"status":"ok","tenants":1,"epochs":{"t1":0},"blocks":{"t1":2191}}'
srv_golden lookup "/v1/tenants/t1/lookup?ip=1.14.149.77" \
	'{"tenant":"t1","epoch":0,"ip":"1.14.149.77","block":"1.14.149.0/24","mapped":true,"site":"mia","site_index":1,"rtt_ns":71545265,"asn":2030,"as":"TRANSIT-BR-2030","country":"BR"}'
srv_golden sites "/v1/tenants/t1/sites" \
	'{"tenant":"t1","epoch":0,"swept":false,"sites":[{"code":"lax","blocks":1608,"block_share":0.7339114559561843,"load_share":0.7339114559561843},{"code":"mia","blocks":583,"block_share":0.2660885440438156,"load_share":0.2660885440438156}]}'
# The drift endpoint must reject a negative since (epochs start at 0)
# instead of silently dumping the whole event log.
DRIFT_RC=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/tenants/t1/drift?since=-1")
if [ "$DRIFT_RC" != "400" ]; then
	echo "vp-server smoke FAILED: drift?since=-1 returned $DRIFT_RC, want 400" >&2
	exit 1
fi
echo "drift since=-1 rejected OK (400)"
kill -TERM "$SRV_PID"
SRV_RC=0
wait "$SRV_PID" || SRV_RC=$?
if [ "$SRV_RC" -ne 0 ]; then
	echo "vp-server smoke FAILED: exit code $SRV_RC after SIGTERM" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
if ! grep -q "^vp-server: clean shutdown$" "$SRV_DIR/out.txt"; then
	echo "vp-server smoke FAILED: no clean-shutdown line" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
if [ ! -s "$SRV_DIR/series/t1.vpds" ]; then
	echo "vp-server smoke FAILED: series not flushed on shutdown" >&2
	exit 1
fi
echo "SIGTERM drain OK (series flushed)"
rm -rf "$SRV_DIR"

# Allocs/op regression gate: BGPCompute's allocation profile is the flat
# route state's contract — slab-per-compute plus arena chunks, not
# per-AS garbage (the pre-columnar code sat at ~53k allocs/op). The
# budget is the recorded steady-state count with headroom for runtime
# variation; fail when a run exceeds it by >20%. Re-pin the budget only
# when the compute pipeline deliberately gains an allocation site. The
# parallel final-selection pass adds ~235 allocs per extra worker, so
# the gate runs at -cpu 1, where the budget was recorded.
echo "== allocs/op gate (BGPCompute, -cpu 1)"
ALLOC_BUDGET=90 # steady-state count at medium tier, pinned 2026-08
GOT_ALLOCS=$(go test -run '^$' -bench '^BenchmarkBGPCompute$' -benchtime 5x -benchmem -cpu 1 . 2>&1 |
	awk '/^BenchmarkBGPCompute/{for(i=2;i<NF;i++) if ($(i+1)=="allocs/op") print $i}')
if [ -z "${GOT_ALLOCS:-}" ]; then
	echo "allocs gate FAILED: could not parse allocs/op" >&2
	exit 1
fi
ALLOC_LIMIT=$((ALLOC_BUDGET + ALLOC_BUDGET / 5))
if [ "$GOT_ALLOCS" -gt "$ALLOC_LIMIT" ]; then
	echo "allocs gate FAILED: BGPCompute ${GOT_ALLOCS} allocs/op > limit ${ALLOC_LIMIT} (budget ${ALLOC_BUDGET} +20%)" >&2
	exit 1
fi
echo "BGPCompute allocs/op=${GOT_ALLOCS} (budget ${ALLOC_BUDGET}, limit ${ALLOC_LIMIT})"

echo "check.sh: all green"
