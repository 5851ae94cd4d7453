package verfploeter

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/faults"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/rng"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

// refRun is the sweep spelled out the slow, sequential way. Every chunk
// forks the Net onto its own clock, collects SendEcho's replies through
// a sink, stable-sorts them by arrival, and rescans them before each
// retry pass. One pass then walks every chunk's replies in chunk order
// under Clean's rules: the first sequence-matched echo per source wins,
// else the first reply, and only an echo captured in its target's own
// chunk carries an RTT, measured from the target's last send. Beside
// Run's results it returns the summed fork counters and how many valid
// cross-block aliases passed as echoes on a sequence collision.
func refRun(cfg Config) (*Catchment, Stats, dataplane.Stats, int, error) {
	hl := cfg.Hitlist
	n := hl.Len()
	perm := rng.NewPermutation(rng.New(cfg.Seed).Derive("probe-order"), n)
	inSweep := func(id int) bool {
		return cfg.Subset == nil || cfg.Subset.Contains(hl.Entries[id].Addr.Block())
	}
	posOf := make([]int, n)
	for i := 0; i < n; i++ {
		posOf[perm.Index(i)] = i
	}
	sendNS := make([]int64, n)
	var stats Stats
	var net dataplane.Stats
	var firstErr error
	// A reply whose source is not the probe's own target is an alias.
	type refReply struct {
		Reply
		alias bool
	}
	var chunks [][]refReply
	for lo := 0; lo < n; lo += probeChunkTargets {
		hi := min(lo+probeChunkTargets, n)
		var sweep []int // the chunk's probed positions
		for i := lo; i < hi; i++ {
			if inSweep(perm.Index(i)) {
				sweep = append(sweep, i)
			}
		}
		clock := vclock.New()
		clock.Advance(chunkOffset(lo))
		fork := cfg.Net.Fork(clock)
		for s := 0; s < cfg.NSite; s++ {
			fork.SetTap(s, func([]byte) {})
		}
		var replies []refReply
		var probed ipv4.Addr
		end := time.Duration(0)
		fork.SetReplySink(func(site int, from ipv4.Addr, ident, seq uint16, at time.Duration) {
			replies = append(replies, refReply{Reply{Site: site, At: at, Src: from, Ident: ident, Seq: seq}, from != probed})
			end = max(end, at)
		})
		var err error
		send := func(positions []int, attempt int) {
			pacedSend(clock, len(positions), func(k int) {
				i := positions[k]
				id := perm.Index(i)
				sendNS[id] = int64(clock.Now())
				probed = hl.Entries[id].Addr
				seq := uint16(i) + uint16(attempt)*retrySeqStride
				if e := fork.SendEcho(cfg.OriginSite, cfg.SourceAddr, hl.Entries[id].Addr, cfg.RoundID, seq); e != nil {
					stats.SendErrs++
					if err == nil {
						err = e
					}
				}
				stats.Sent++
			})
		}
		stats.Targets += len(sweep)
		send(sweep, 0)
		backoff := DefaultRetryBackoff
		for a := 1; err == nil && a <= cfg.Retries; a++ {
			clock.Advance(backoff)
			answered := make(map[int]bool)
			for _, r := range replies {
				id := hl.Index().Of(r.Src.Block())
				if r.At <= clock.Now() && id >= 0 && hl.Entries[id].Addr == r.Src {
					answered[posOf[id]] = true
				}
			}
			var missing []int
			for _, i := range sweep {
				if !answered[i] {
					missing = append(missing, i)
				}
			}
			if len(missing) == 0 {
				break
			}
			send(missing, a)
			stats.Retried += len(missing)
			backoff = min(2*backoff, DefaultRetryBackoffMax)
		}
		slices.SortStableFunc(replies, func(a, b refReply) int { return cmp.Compare(a.At, b.At) })
		stats.Elapsed = max(stats.Elapsed, clock.Now(), end)
		net.Add(fork.Stats())
		chunks = append(chunks, replies)
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, stats, net, 0, firstErr
	}

	catch := NewCatchment(cfg.NSite, hl.Index())
	kept := make([]int, n) // 0 none, 1 alias, 2 echo
	cs := &stats.Clean
	collisions := 0
	for c, replies := range chunks {
		for _, r := range replies {
			cs.Total++
			id := hl.Index().Of(r.Src.Block())
			switch {
			case r.Ident != cfg.RoundID:
				cs.WrongRound++
			case r.At > DefaultCutoff:
				cs.Late++
			case id < 0 || hl.Entries[id].Addr != r.Src || !inSweep(id):
				cs.Unsolicited++
			default:
				if kept[id] == 0 {
					cs.Kept++
				} else {
					cs.Duplicates++
				}
				echo := false
				for a := 0; a <= cfg.Retries; a++ {
					echo = echo || r.Seq == uint16(posOf[id])+uint16(a)*retrySeqStride
				}
				if echo && r.alias {
					collisions++
				}
				if kept[id] == 2 || (kept[id] == 1 && !echo) {
					continue
				}
				var rtt time.Duration
				if echo && posOf[id]/probeChunkTargets == c && int64(r.At) > sendNS[id] {
					rtt = r.At - time.Duration(sendNS[id])
				}
				catch.Reassign(r.Src.Block(), r.Site, rtt)
				kept[id] = 1
				if echo {
					kept[id] = 2
				}
			}
		}
	}
	stats.MedianRTT = catch.MedianRTT()
	stats.Responded = catch.Len()
	return catch, stats, net, collisions, nil
}

// oracleWorld is a three-site deployment measured by its first two
// sites; the third site's catchment replies go uncaptured.
func oracleWorld(size topology.Size, seed uint64, imp dataplane.Impairments) (*topology.Topology, *dataplane.Net, *hitlist.Hitlist) {
	top := topology.Generate(topology.DefaultParams(size, seed))
	net := dataplane.New(dataplane.Config{
		Top: top, Clock: vclock.New(), Seed: seed, Impair: imp,
		AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
	})
	net.SetAssignment(bgp.Compute(top, []bgp.Announcement{
		{Site: 0, UpstreamASN: top.ASes[0].ASN, Lat: 34, Lon: -118},
		{Site: 1, UpstreamASN: top.ASes[1].ASN, Lat: 26, Lon: -80},
		{Site: 2, UpstreamASN: top.ASes[2].ASN, Lat: 52, Lon: 5},
	}).Assign())
	return top, net, hitlist.Build(top, seed)
}

// aliasHeavy raises aliasing far above the paper's rate, so that
// cross-block aliases onto probed representatives — within a chunk and
// across chunks — occur by the hundreds.
func aliasHeavy() dataplane.Impairments {
	imp := dataplane.DefaultImpairments()
	imp.AliasFrac, imp.CrossAlias = 0.2, 0.8
	return imp
}

// matchReference runs cfg through refRun and through Run at one and
// four workers, and requires identical catchments (sites and RTTs),
// Stats, and published dataplane counters. It returns refRun's
// sequence-collision count.
func matchReference(t *testing.T, label string, cfg Config) int {
	t.Helper()
	want, wantStats, wantNet, collisions, err := refRun(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantReg := obsv.New()
	wantNet.PublishObs(wantReg)
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("%s/workers=%d", label, workers)
		cfg.Workers = workers
		cfg.Obs = obsv.New()
		got, gotStats, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", label, gotStats, wantStats)
		}
		if got.RTTCount() != want.RTTCount() {
			t.Fatalf("%s: %d RTTs, want %d", label, got.RTTCount(), want.RTTCount())
		}
		catchmentsEqual(t, label, want, got)
		for _, name := range []string{"dataplane_probes_sent", "dataplane_replies",
			"dataplane_unresponsive", "dataplane_aliased", "dataplane_duplicates",
			"fault_probe_lost", "fault_reply_lost", "fault_rate_limited",
			"fault_silenced", "fault_blackouts"} {
			if g, w := cfg.Obs.Counter(name, "").Value(), wantReg.Counter(name, "").Value(); g != w {
				t.Fatalf("%s: counter %s = %d, want %d", label, name, g, w)
			}
		}
	}
	return collisions
}

// TestRunMatchesReference holds Run to refRun for full, sparse and
// whole-hitlist sweeps at the tiny and medium tiers: fault-free, under
// moderate faults with two retries, and under heavy faults with two
// retries, where the ICMP rate limit binds. -short covers the tiny tier
// only.
func TestRunMatchesReference(t *testing.T) {
	sizes := []topology.Size{topology.SizeTiny, topology.SizeMedium}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		_, net, hl := oracleWorld(size, 21, aliasHeavy())
		sparse := ipv4.NewBlockSet(0)
		whole := ipv4.NewBlockSet(hl.Len())
		for i, e := range hl.Entries {
			// Every 5th block and some successors, so some probed blocks
			// receive their predecessor's aliases and some do not.
			if i%5 == 0 || i%5 == 1 && i%3 == 0 {
				sparse.Add(e.Addr.Block())
			}
			whole.Add(e.Addr.Block())
		}
		// Probe order 23 makes two valid cross-block aliases in the
		// medium full sweep collide with their target's sequence space,
		// and one of them comes from an earlier chunk than its target's
		// own echo, which it therefore displaces.
		for _, tc := range []struct {
			name    string
			faults  faults.Profile
			retries int
			seed    uint64
		}{
			{"clean", faults.None(), 0, 77},
			{"moderate+retries", faults.Moderate(), 2, 23},
			{"heavy+retries", faults.Heavy(), 2, 5},
		} {
			net.SetFaults(tc.faults)
			for _, sub := range []struct {
				name string
				set  *ipv4.BlockSet
			}{{"full", nil}, {"sparse", sparse}, {"whole", whole}} {
				cfg := Config{
					Hitlist: hl, Net: net, NSite: 2,
					SourceAddr: ipv4.MustParseAddr("198.18.0.1"),
					RoundID:    6, Seed: tc.seed, Retries: tc.retries, Subset: sub.set,
				}
				label := fmt.Sprintf("%v/%s/%s", size, tc.name, sub.name)
				collisions := matchReference(t, label, cfg)
				if size == topology.SizeMedium && tc.seed == 23 && sub.set == nil && collisions == 0 {
					t.Fatalf("%s: no cross-block alias collided with its target's sequence space", label)
				}
			}
		}
	}
}

// TestRunMatchesReferenceAtCutoff: every reply is late by just under
// the cutoff and every host repeats, so duplicate bursts straddle the
// cutoff and split into valid and late copies.
func TestRunMatchesReferenceAtCutoff(t *testing.T) {
	imp := dataplane.DefaultImpairments()
	imp.LateFrac, imp.LateDelay = 1, DefaultCutoff-300*time.Millisecond
	imp.DupFrac, imp.DupMax = 1, 2000
	_, net, hl := oracleWorld(topology.SizeTiny, 21, imp)
	cfg := Config{
		Hitlist: hl, Net: net, NSite: 2,
		SourceAddr: ipv4.MustParseAddr("198.18.0.1"), RoundID: 6, Seed: 77,
	}
	matchReference(t, "cutoff", cfg)
	if _, st, _ := Run(cfg); st.Clean.Late == 0 || st.Clean.Kept == 0 {
		t.Fatalf("no burst straddles the cutoff: %+v", st.Clean)
	}
}

// TestRunSendErrorsMatchReference: a refused probe counts in SendErrs
// and surfaces as Run's first error, exactly as in the reference.
func TestRunSendErrorsMatchReference(t *testing.T) {
	top, net, hl := oracleWorld(topology.SizeTiny, 21, aliasHeavy())
	unrouted := dataplane.New(dataplane.Config{
		Top: top, Clock: vclock.New(), AnycastPrefix: ipv4.MustParsePrefix("198.18.0.0/24"),
	})
	for _, tc := range []struct {
		name string
		net  *dataplane.Net
		src  string
		want error
	}{
		{"bad source", net, "10.0.0.1", dataplane.ErrBadSource},
		{"no assignment", unrouted, "198.18.0.1", dataplane.ErrNoAssignment},
	} {
		cfg := Config{Hitlist: hl, Net: tc.net, NSite: 2, SourceAddr: ipv4.MustParseAddr(tc.src), Retries: 1}
		_, wantStats, _, _, wantErr := refRun(cfg)
		_, gotStats, gotErr := Run(cfg)
		if !errors.Is(wantErr, tc.want) || gotErr != wantErr {
			t.Errorf("%s: Run error %v, reference %v", tc.name, gotErr, wantErr)
		}
		if gotStats != wantStats || gotStats.SendErrs != hl.Len() {
			t.Errorf("%s: stats %+v, reference %+v", tc.name, gotStats, wantStats)
		}
	}
}

// TestIsEcho: a reply matches its address's sequence space on exactly
// the attempts the retry budget allows. Within one chunk no alias can
// collide — positions differ by less than the stride — so only
// cross-chunk aliases exercise this.
func TestIsEcho(t *testing.T) {
	const pos = 40000
	for _, tc := range []struct {
		seq     uint16
		retries int
		want    bool
	}{
		{pos, 0, true},
		{(pos + retrySeqStride) & 0xffff, 0, false},
		{(pos + retrySeqStride) & 0xffff, 1, true},
		{(pos + 2*retrySeqStride) & 0xffff, 1, false},
		{(pos + 2*retrySeqStride) & 0xffff, 2, true},
		{pos + 1, 2, false},
		{(pos + 3*retrySeqStride) & 0xffff, 2, false},
	} {
		if got := isEcho(pos, tc.seq, tc.retries); got != tc.want {
			t.Errorf("isEcho(%d, %d, %d) = %v, want %v", pos, tc.seq, tc.retries, got, tc.want)
		}
	}
}
