package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/topology"
)

// metricOut is one reported number. Timings carry their sample count
// and, where n supports one, a tail percentile; Computed marks a number
// derived from other measurements rather than observed directly.
type metricOut struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	TailP    float64 `json:"tail_p,omitempty"`
	Tail     float64 `json:"tail,omitempty"`
	Computed bool    `json:"computed,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	Seconds      float64              `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FailedShare  float64              `json:"failed_share"`
	Why          []string             `json:"why,omitempty"`
	Metrics      map[string]metricOut `json:"metrics"`
	Fingerprints map[string]string    `json:"fingerprints"`
	WallS        float64              `json:"wall_s"`
}

func (r *runResult) set(name string, m metricOut) {
	m.Unit = unitOf(name)
	r.Metrics[name] = m
}

func (r *runResult) timing(name string, samples []float64) {
	d := summarize(samples)
	r.set(name, metricOut{Value: d.Median, N: d.N, TailP: d.TailP, Tail: d.Tail})
}

func (r *runResult) value(name string, v float64) { r.set(name, metricOut{Value: v}) }

func (r *runResult) computed(name string, v float64) {
	r.set(name, metricOut{Value: v, Computed: true})
}

// maxTier is the tier of the workload's largest world, the one whose
// build dominates setup_s.
func maxTier(p profile) topology.Size {
	t := p.sweepTier
	for _, o := range []topology.Size{p.monTier, p.planTier, p.quietTier, p.churnTier} {
		if o > t {
			t = o
		}
	}
	return t
}

// cycles is how many slices each path's measurement is cut into.
const cycles = 10

// setupReps is how many times a run sets everything up; setup_s is the
// median, so one slow page-fault storm does not decide it.
const setupReps = 3

// runWorkload executes one run: setup (repeated), the five phases in a
// fixed order, and — traced — the stage measurements. It returns an
// error only when the run could not be carried out at all; failed
// checks are counted in the result.
func runWorkload(p profile, opt options) (*runResult, error) {
	begin := time.Now()
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: p.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Metrics: map[string]metricOut{}, Fingerprints: map[string]string{},
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var all checks
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	var setups []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		bgp.ResetRouteCache()
		runtime.GC()
		sp := tr.begin("bench.setup", i, -1)
		t0 := time.Now()
		var err error
		r, err = setup(p, opt, tr)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer r.close()
	res.timing("setup_s", setups)
	phasesStart, spans0 := time.Now(), tr.count()

	// The five paths take turns, a slice each per cycle, so that a few
	// seconds of interference from outside the process cannot land on
	// one path's whole measurement.
	var m measured
	sw, mo, pl, qu, ch := &m.sweep, &m.monitor, &m.plan, &m.quiet, &m.churn
	for c := 0; c < cycles; c++ {
		share := func(total int) int { return (c+1)*total/cycles - c*total/cycles }
		if err := runSweep(r.sweep, sw, share(p.sweepRounds), opt, tr); err != nil {
			return nil, err
		}
		if err := runMonitor(r, mo, share(p.monSteps), p.monActionEvery, tr); err != nil {
			return nil, err
		}
		runPlan(r.planScn, r.planCfg, pl, share(p.planSearches), tr)
		runQuiet(r.quietLoad, qu, p.quietSecs/cycles, c)
		if err := runChurn(r.churnLoad, ch, p, p.churnSecs/cycles, c); err != nil {
			return nil, err
		}
	}
	m.wall, m.spans = time.Since(phasesStart), tr.count()-spans0
	finishMonitor(r, mo, opt, tr)
	qu.add(r.quietLoad.finish())
	ch.add(r.churnLoad.finish())
	ch.ok(len(ch.advanceMS) > 0, "no epoch advanced during %.1fs of churn", p.churnSecs)
	for _, c := range []checks{sw.checks, mo.checks, pl.checks, qu.checks, ch.checks} {
		all.add(c)
	}

	res.timing("sweep_s", sw.roundS)
	res.timing("sweep_allocs", sw.roundAllocs)
	res.timing("epoch_s", mo.stableS)
	res.timing("epoch_probes", mo.probes)
	res.timing("plan_ms", pl.coldMS)
	res.timing("lookup_rps", qu.sliceRPS)
	res.timing("advance_ms", ch.advanceMS)
	lat := m.latencyOwner(p)
	res.set("lookup_p50_us", metricOut{Value: median(lat.byKind[kindLookup]), N: len(lat.byKind[kindLookup])})
	res.timing("lookup_p99_us", lat.sliceP99US)
	res.Fingerprints["sweep.rounds"] = foldFingerprints(sw.fingerprints)
	res.Fingerprints["monitor.final_map"] = fmt.Sprintf("%016x", mo.fingerprint)
	res.Fingerprints["playbook.plan"] = fmt.Sprintf("%016x best=%s", pl.fingerprint, pl.best)

	if opt.trace {
		if err := layerMetrics(res, p, opt, r, tr, &all, &m, &mem0); err != nil {
			return nil, err
		}
		path := filepath.Join(opt.outDir, "trace-"+p.name+".json")
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}

	res.Attempted, res.Failed, res.Why = all.attempted, all.failed, all.why
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.WallS = time.Since(begin).Seconds()
	return res, nil
}

// measured is what the five phases recorded over all their slices, the
// wall the slices took together, and the spans recorded meanwhile.
type measured struct {
	sweep        sweepOut
	monitor      monitorOut
	plan         planOut
	quiet, churn serveOut
	wall         time.Duration
	spans        int
}

// latencyOwner is the serving phase lookup_p50_us and lookup_p99_us are
// read from on this workload.
func (m *measured) latencyOwner(p profile) *serveOut {
	if p.churnOwnsLatency {
		return &m.churn
	}
	return &m.quiet
}

// foldFingerprints condenses the per-round map fingerprints into one
// line two runs at one seed can be diffed on.
func foldFingerprints(fps []uint64) string {
	distinct := map[uint64]bool{}
	fold := uint64(0)
	for _, fp := range fps {
		distinct[fp] = true
		fold = fpMix(fold, fp)
	}
	return fmt.Sprintf("%016x (%d rounds, %d distinct maps)", fold, len(fps), len(distinct))
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// layerMetrics fills in every per-layer metric of a traced run: those
// the phases observed directly, and the computed stage costs.
func layerMetrics(res *runResult, p profile, opt options, r *rig, tr *tracer, all *checks,
	m *measured, mem0 *runtime.MemStats) error {

	sw, mo, pl, ch, lat := &m.sweep, &m.monitor, &m.plan, &m.churn, m.latencyOwner(p)

	// Paths the benchmark composes itself: the spans must account
	// for the round's wall. The median round decides: one round that
	// lost the processor between two spans is not a defect of the trace.
	tr.mu.Lock()
	shares := rootSelfShares(tr.spans, "sweep.round")
	tr.mu.Unlock()
	all.ok(median(shares) <= 0.05, "sweep rounds: %.1f%% of the median round's wall lies outside its spans (limit 5%%)", 100*median(shares))

	// sweep → verfploeter, dataset, loadmodel
	res.timing("verfploeter.run_ms", sw.measureMS)
	res.timing("verfploeter.run_allocs", sw.measureAllocs)
	res.value("verfploeter.targets", float64(sw.targets))
	res.value("verfploeter.response_rate", sw.responseRate)
	res.computed("verfploeter.ns_per_target", median(sw.measureMS)*1e6/float64(sw.targets))
	res.timing("dataset.stream_write_ms", sw.writeMS)
	res.timing("dataset.stream_read_ms", sw.readMS)
	res.value("dataset.stream_bytes", float64(sw.fileBytes))
	res.timing("dataset.stream_allocs", sw.writeAllocs)
	res.timing("loadmodel.predict_ms", sw.predictMS)
	res.timing("loadmodel.predict_allocs", sw.predictAllocs)

	// monitor
	stableMS := make([]float64, len(mo.stableS))
	for i, s := range mo.stableS {
		stableMS[i] = s * 1000
	}
	res.timing("monitor.step_stable_ms", stableMS)
	res.timing("monitor.event_epoch_ms", mo.eventMS)
	res.timing("monitor.sampled_targets", mo.sampled)
	res.timing("monitor.escalated_strata", mo.escalated)
	res.timing("monitor.skipped_strata", mo.skipped)
	res.value("monitor.predict_misses", float64(mo.misses))
	res.value("monitor.total_s", mo.totalS)
	res.value("dataset.series_write_ms", mo.seriesWriteMS)
	res.value("dataset.series_bytes", float64(mo.seriesBytes))
	res.value("dataset.series_at_ms", mo.seriesAtMS)
	mst, err := measureMonitorStages(r.monScn, r.monCfg.RoundID, mo, tr)
	if err != nil {
		return fmt.Errorf("monitor stages: %w", err)
	}
	res.computed("verfploeter.subset_run_ms", mst.subsetRunMS)
	res.computed("verfploeter.subset_ns_per_target", mst.subsetRunMS*1e6/float64(mst.subsetTargets))
	res.computed("verfploeter.diff_ms", mst.diffMS)
	res.computed("verfploeter.clone_ms", mst.cloneMS)
	res.computed("predict.diff_ms", mst.predictDiffMS)
	res.computed("predict.whatif_ms", mst.whatIfMS)
	res.computed("monitor.unattributed_ms", median(stableMS)-mst.subsetRunMS-mst.diffMS-mst.predictDiffMS)

	// playbook → bgp, loadgen
	res.timing("playbook.search_warm_ms", pl.warmMS)
	res.value("playbook.candidates", float64(pl.candidates))
	res.computed("playbook.ms_per_candidate", median(pl.coldMS)/float64(pl.candidates))
	res.timing("playbook.search_allocs", pl.coldAllocs)
	res.value("loadgen.synthesize_ms", r.synthMS)
	res.value("bgp.cache_hit_ratio", pl.hitRatio())
	bs, err := measureBGPStages(r.planScn, opt.workers, tr)
	if err != nil {
		return fmt.Errorf("bgp stages: %w", err)
	}
	res.computed("bgp.compute_delta_ms", bs.deltaMS)
	res.computed("bgp.assign_delta_ms", bs.assignDeltaMS)
	res.computed("bgp.compute_batch_ms", bs.batchMS)
	res.computed("bgp.delta_allocs", bs.deltaAllocs)

	// setup → topology, hitlist, geo, querylog, bgp cold
	tier := maxTier(p)
	ws := measureWorldStages(r.worlds[tier].scn, tier, opt.workers, tr)
	res.computed("topology.generate_ms", ws.generateMS)
	res.computed("hitlist.build_ms", ws.hitlistMS)
	res.computed("geo.build_ms", ws.geoMS)
	res.computed("querylog.synthesize_ms", ws.synthesizeMS)
	res.computed("bgp.compute_cold_ms", ws.coldMS)
	res.computed("bgp.assign_ms", ws.assignMS)
	res.computed("bgp.compute_cold_allocs", ws.coldAllocs)

	// dataplane and packet, underneath the sweep
	dp, err := measureDataplane(r.sweep.scn)
	if err != nil {
		return fmt.Errorf("dataplane stage: %w", err)
	}
	res.computed("dataplane.send_echo_ns", dp.sendEchoNS)
	res.computed("dataplane.replies_per_probe", dp.repliesPerProbe)
	pk, err := measurePacket()
	if err != nil {
		return fmt.Errorf("packet stage: %w", err)
	}
	res.computed("packet.encode_ns", pk.encodeNS)
	res.computed("packet.decode_ns", pk.decodeNS)
	res.computed("packet.allocs_per_pkt", pk.allocsPerPkt)

	// server and the load generator
	owner := r.quietLoad
	if p.churnOwnsLatency {
		owner = r.churnLoad
	}
	ss := measureServer(owner.sr, owner.reqs, tr)
	res.computed("server.lookup_ns", ss.lookupNS)
	res.computed("server.lookup_allocs", ss.lookupAllocs)
	res.computed("server.handler_lookup_us", ss.handlerUS)
	res.computed("server.http_transport_us", median(lat.byKind[kindLookup])-ss.handlerUS)
	res.timing("server.sites_p50_us", lat.byKind[kindSites])
	res.timing("server.drift_p50_us", lat.byKind[kindDrift])
	lookups := sortedCopy(lat.byKind[kindLookup])
	note := ""
	if pickTail(len(lookups)) < 99.9 {
		note = "fewer than 10 samples beyond p99.9"
	}
	res.set("server.http_lookup_p999_us", metricOut{Value: percentile(lookups, 99.9), N: len(lookups), Note: note})
	res.computed("server.build_snapshot_ms", ss.buildMS)
	res.computed("server.build_snapshot_allocs", ss.buildAllocs)
	res.value("server.epochs_advanced", float64(len(ch.advanceMS)))
	res.value("server.stale_epoch_reads", float64(r.quietLoad.stale()+r.churnLoad.stale()))
	late := sortedCopy(ch.lateUS)
	res.set("gen.late_p99_us", metricOut{Value: percentile(late, 99), N: len(late)})
	res.timing("gen.achieved_rps", ch.achievedRPS)

	ov, err := measureObsvOverhead(opt.workers, 24)
	if err != nil {
		return err
	}
	overhead := metricOut{Value: ov.medianPct, N: ov.pairs,
		Note: fmt.Sprintf("quartiles %.2f..%.2f", ov.q1Pct, ov.q3Pct)}
	if ov.unresolved {
		overhead.Note += " unresolved"
	}
	res.set("obsv.sweep_overhead_pct", overhead)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.value("proc.peak_rss_mb", peakRSSMB())
	res.value("proc.gc_pause_total_ms", float64(mem.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	res.value("proc.gc_cycles", float64(mem.NumGC-mem0.NumGC))

	// What tracing cost the timed phases: the spans recorded there at
	// the calibrated price of one span, plus the stop-the-world reads
	// only the traced sweep makes. The measured counterpart — traced
	// against untraced medians — is printed by `--workload all`.
	cost := time.Duration(m.spans) * spanCost()
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "bench.ReadMemStats" {
			cost += time.Duration(s.End - s.Start)
		}
	}
	tr.mu.Unlock()
	res.computed("trace_overhead_pct", 100*float64(cost)/float64(m.wall))
	return nil
}
