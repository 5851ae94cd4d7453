package verfploeter

import (
	"runtime"
	"testing"
	"time"

	"verfploeter/internal/dataplane"
	"verfploeter/internal/ipv4"
)

func catchmentsEqual(t *testing.T, label string, a, b *Catchment) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d mapped blocks", label, a.Len(), b.Len())
	}
	for _, blk := range a.Blocks() {
		sa, _ := a.SiteOf(blk)
		sb, ok := b.SiteOf(blk)
		if !ok || sa != sb {
			t.Fatalf("%s: block %v site %d vs %d (present %v)", label, blk, sa, sb, ok)
		}
		ra, oka := a.RTTOf(blk)
		rb, okb := b.RTTOf(blk)
		if oka != okb || ra != rb {
			t.Fatalf("%s: block %v rtt %v/%v vs %v/%v", label, blk, ra, oka, rb, okb)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the
// catchment and every statistic must be identical no matter how wide the
// worker pool is, with all impairments (duplicates, aliases, late and
// lost replies) active.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	w := newWorld(t, 9, dataplane.DefaultImpairments())
	var ref *Catchment
	var refStats Stats
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		cfg := w.config(4)
		cfg.Workers = workers
		catch, stats, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref, refStats = catch, stats
			continue
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
		catchmentsEqual(t, "workers", ref, catch)
	}
	if refStats.Clean.Kept == 0 {
		t.Fatal("degenerate round: nothing kept")
	}
}

// streamRecords builds a deterministic reply stream exercising every
// cleaning rule: good replies, duplicates, a wrong round, a late reply,
// and an unsolicited source.
func streamRecords(w *world) []Reply {
	var recs []Reply
	for i, e := range w.hl.Entries {
		r := Reply{Site: i % 2, At: time.Duration(i) * time.Millisecond, Src: e.Addr, Ident: 3, Seq: uint16(i)}
		recs = append(recs, r)
		if i%5 == 0 { // duplicate, later, at the other site — must be suppressed
			r.Site, r.At = (i+1)%2, r.At+time.Second
			recs = append(recs, r)
		}
	}
	return append(recs,
		Reply{Site: 0, At: time.Second, Src: w.hl.Entries[0].Addr, Ident: 99},             // wrong round
		Reply{Site: 1, At: time.Second, Src: ipv4.MustParseAddr("203.0.113.7"), Ident: 3}, // unsolicited
		Reply{Site: 0, At: 20 * time.Minute, Src: w.hl.Entries[1].Addr, Ident: 3, Seq: 1}, // late
	)
}

// duplicateBurst is n copies of one hitlist address's reply: the paper
// observes "systems replying multiple times to a single echo request, in
// some cases up to thousands of times".
func duplicateBurst(w *world, n int) []Reply {
	recs := make([]Reply, n)
	for i := range recs {
		recs[i] = Reply{Site: 1, At: time.Duration(i) * time.Millisecond, Src: w.hl.Entries[0].Addr, Ident: 3}
	}
	return recs
}

// TestStreamShardsMatchesStreamBuilder folds the same reply stream,
// split across chunks, at several shard counts and requires identical
// catchments (sites and RTTs) and statistics.
func TestStreamShardsMatchesStreamBuilder(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	recs := streamRecords(w)
	half := len(recs) / 2
	chunks := []probeChunk{{replies: recs[:half]}, {replies: recs[half:]}}

	refCatch, refStats := foldChunks(chunks, w.hl, 2, 3, 15*time.Minute, 1)
	if refStats.Kept == 0 || refStats.Duplicates == 0 || refStats.Late == 0 ||
		refStats.Unsolicited == 0 || refStats.WrongRound == 0 {
		t.Fatalf("stream not exercising all rules: %+v", refStats)
	}
	for _, workers := range []int{2, 7} {
		catch, stats := foldChunks(chunks, w.hl, 2, 3, 15*time.Minute, workers)
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
		catchmentsEqual(t, "shards", refCatch, catch)
	}
}

// TestBuildCatchmentMatchesClean cross-checks the sharded fold against
// the sequential Clean pass on the same reply stream, split across
// chunks, at several worker counts: the cleaning statistics must be
// equal and every kept reply must map its block to its site.
func TestBuildCatchmentMatchesClean(t *testing.T) {
	w := newWorld(t, 7, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	probed := make(map[ipv4.Addr]bool)
	for _, e := range w.hl.Entries {
		probed[e.Addr] = true
	}
	const roundID, cutoff = 3, 15 * time.Minute
	for _, tc := range []struct {
		name    string
		replies []Reply
	}{
		{"rules", streamRecords(w)},
		{"burst", duplicateBurst(w, 50)},
	} {
		kept, want := Clean(tc.replies, probed, roundID, cutoff)
		switch {
		case tc.name == "rules" && (want.Kept == 0 || want.Duplicates == 0 || want.Late == 0 ||
			want.Unsolicited == 0 || want.WrongRound == 0):
			t.Fatalf("rules: stream not exercising every rule: %+v", want)
		case tc.name == "burst" && (want.Kept != 1 || want.Duplicates != 49):
			t.Fatalf("burst: kept=%d dups=%d, want 1/49", want.Kept, want.Duplicates)
		}
		// Three chunks, walked in order, carry the stream as one sweep's
		// chunks would.
		third := (len(tc.replies) + 2) / 3
		var chunks []probeChunk
		for lo := 0; lo < len(tc.replies); lo += third {
			chunks = append(chunks, probeChunk{replies: tc.replies[lo:min(lo+third, len(tc.replies))]})
		}
		for _, workers := range []int{1, 4} {
			catch, got := foldChunks(chunks, w.hl, 2, roundID, cutoff, workers)
			if got != want {
				t.Fatalf("%s workers=%d: fold stats %+v, clean stats %+v", tc.name, workers, got, want)
			}
			if catch.Len() != len(kept) {
				t.Fatalf("%s workers=%d: catchment %d blocks from %d kept replies", tc.name, workers, catch.Len(), len(kept))
			}
			for _, r := range kept {
				if site, ok := catch.SiteOf(r.Src.Block()); !ok || site != r.Site {
					t.Fatalf("%s workers=%d: block %v at site %d (ok=%v), want %d", tc.name, workers, r.Src.Block(), site, ok, r.Site)
				}
			}
		}
	}
}
