package verfploeter

import (
	"testing"
	"time"

	"verfploeter/internal/dataplane"
	"verfploeter/internal/ipv4"
)

// TestRunEmptySubset: a non-nil empty subset is a legitimate degenerate
// sweep (a monitor epoch whose sample stratum went dark) — it must
// complete cleanly with an empty catchment and all-zero stats, not
// error or divide by zero.
func TestRunEmptySubset(t *testing.T) {
	w := newWorld(t, 3, dataplane.Impairments{BaseRTT: 5 * time.Millisecond})
	cfg := w.config(1)
	cfg.Subset = ipv4.NewBlockSet(0)
	catch, stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if catch.Len() != 0 {
		t.Errorf("catchment has %d blocks, want 0", catch.Len())
	}
	if stats.Sent != 0 || stats.Targets != 0 || stats.Responded != 0 {
		t.Errorf("stats = %+v, want all-zero probe counts", stats)
	}
	if stats.Clean.Total != 0 {
		t.Errorf("cleaned %d replies from an empty sweep", stats.Clean.Total)
	}
	if rate := stats.ResponseRate(); rate != 0 {
		t.Errorf("ResponseRate() = %v, want 0", rate)
	}
}

// TestRunSingleBlockSubset: probing one block (plus its topology
// predecessor, the only block whose probe can alias into it) must
// reproduce exactly the observation the full sweep made for that block —
// the invariant the monitor's partial re-probe stitching rests on.
func TestRunSingleBlockSubset(t *testing.T) {
	w := newWorld(t, 3, dataplane.DefaultImpairments())
	full, _, err := Run(w.config(1))
	if err != nil {
		t.Fatal(err)
	}

	// Pick a mapped block with a predecessor in topology order.
	target := -1
	for i := 1; i < len(w.top.Blocks); i++ {
		if _, ok := full.SiteOf(w.top.Blocks[i].Block); ok {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no mapped block found")
	}
	block := w.top.Blocks[target].Block
	wantSite, _ := full.SiteOf(block)
	wantRTT, _ := full.RTTOf(block)

	sub := ipv4.NewBlockSet(2)
	sub.Add(block)
	sub.Add(w.top.Blocks[target-1].Block)
	cfg := w.config(1)
	cfg.Subset = sub
	part, stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Targets == 0 || stats.Targets > 2 {
		t.Errorf("subset sweep probed %d targets, want 1-2", stats.Targets)
	}
	gotSite, ok := part.SiteOf(block)
	if !ok {
		t.Fatalf("block %v missing from subset sweep", block)
	}
	if gotSite != wantSite {
		t.Errorf("subset mapped %v to site %d, full sweep to %d", block, gotSite, wantSite)
	}
	if gotRTT, _ := part.RTTOf(block); gotRTT != wantRTT {
		t.Errorf("subset RTT %v, full sweep %v", gotRTT, wantRTT)
	}
}

// TestStreamShardsDuplicateBurst: the paper observes "systems replying
// multiple times to a single echo request, in some cases up to thousands
// of times" — a burst of N identical replies must fold to one kept
// reply and N-1 duplicates, identically for any shard count.
func TestStreamShardsDuplicateBurst(t *testing.T) {
	w := newWorld(t, 11, dataplane.Impairments{})
	src := w.hl.Entries[0].Addr
	const n = 50
	chunks := []probeChunk{{replies: duplicateBurst(w, n)}}

	for _, workers := range []int{1, 4} {
		catch, stats := foldChunks(chunks, w.hl, 2, 3, time.Minute, workers)
		if stats.Kept != 1 || stats.Duplicates != n-1 {
			t.Errorf("workers=%d: kept=%d dups=%d, want 1/%d", workers, stats.Kept, stats.Duplicates, n-1)
		}
		if stats.Total != n {
			t.Errorf("workers=%d: total=%d, want %d", workers, stats.Total, n)
		}
		if catch.Len() != 1 {
			t.Errorf("workers=%d: catchment has %d blocks, want 1", workers, catch.Len())
		}
		if site, ok := catch.SiteOf(src.Block()); !ok || site != 1 {
			t.Errorf("workers=%d: block mapped to %d (ok=%v), want site 1", workers, site, ok)
		}
	}
}

// TestStreamShardsDropRules pins the per-reply drop paths (wrong round,
// late, unsolicited) through the sharded fold.
func TestStreamShardsDropRules(t *testing.T) {
	w := newWorld(t, 11, dataplane.Impairments{})
	src := w.hl.Entries[0].Addr
	outside := ipv4.MustParseAddr("203.0.113.77") // not on the hitlist
	chunks := []probeChunk{{replies: []Reply{
		{Site: 0, At: time.Second, Src: src, Ident: 9},     // wrong round
		{Site: 0, At: 2 * time.Minute, Src: src, Ident: 7}, // late
		{Site: 0, At: time.Second, Src: outside, Ident: 7}, // unsolicited
		{Site: 0, At: 2 * time.Second, Src: src, Ident: 7}, // the one good reply
	}}}

	catch, stats := foldChunks(chunks, w.hl, 2, 7, time.Minute, 2)
	if stats.WrongRound != 1 || stats.Late != 1 || stats.Unsolicited != 1 || stats.Kept != 1 {
		t.Errorf("stats = %+v, want wrong-round/late/unsolicited/kept all 1", stats)
	}
	if stats.Total != len(chunks[0].replies) || stats.Duplicates != 0 {
		t.Errorf("total=%d dups=%d, want %d/0", stats.Total, stats.Duplicates, len(chunks[0].replies))
	}
	if catch.Len() != 1 {
		t.Errorf("catchment has %d blocks, want 1", catch.Len())
	}
}

// TestStreamBuilderCleaning runs every cleaning rule on one source
// through the fold with send times, so the kept echo also carries its
// RTT: the first in-round, on-time reply wins its block for its site.
func TestStreamBuilderCleaning(t *testing.T) {
	w := newWorld(t, 11, dataplane.Impairments{})
	src := w.hl.Entries[0].Addr
	// Identity permutation positions; only target 0 was sent, at 5ms.
	pos32 := make([]uint32, w.hl.Len())
	sendNS := make([]int64, w.hl.Len())
	for i := range pos32 {
		pos32[i], sendNS[i] = uint32(i), -1
	}
	sendNS[0] = int64(5 * time.Millisecond)
	chunks := []probeChunk{{replies: []Reply{
		{Site: 0, At: 10 * time.Millisecond, Src: src, Ident: 9},                           // kept, RTT 5ms
		{Site: 1, At: 11 * time.Millisecond, Src: src, Ident: 9},                           // dup
		{Site: 0, At: 12 * time.Millisecond, Src: src, Ident: 8},                           // wrong round
		{Site: 0, At: 13 * time.Millisecond, Src: ipv4.MustParseAddr("9.9.9.9"), Ident: 9}, // unsolicited
		{Site: 0, At: 2 * time.Minute, Src: src, Ident: 9},                                 // late
	}}}

	catch, stats := foldChunksSubset(chunks, w.hl, nil, pos32, sendNS, 0, 2, 9, time.Minute, 1)
	if stats.Kept != 1 || stats.Duplicates != 1 || stats.WrongRound != 1 ||
		stats.Late != 1 || stats.Unsolicited != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if site, ok := catch.SiteOf(src.Block()); !ok || site != 0 {
		t.Fatalf("block not mapped to first site")
	}
	if rtt, ok := catch.RTTOf(src.Block()); !ok || rtt != 5*time.Millisecond {
		t.Fatalf("RTT = %v, %v", rtt, ok)
	}
}

// TestCentralKeepsRawBurst: replies reach the fold raw — every
// duplicate copy the data plane emits is carried through capture and
// counted by the cleaner, not collapsed at the sink. With every block
// duplicating, each kept reply has at least one suppressed twin.
func TestCentralKeepsRawBurst(t *testing.T) {
	w := newWorld(t, 11, dataplane.Impairments{DupFrac: 1, DupMax: 20, BaseRTT: 5 * time.Millisecond})
	catch, stats, err := Run(w.config(3))
	if err != nil {
		t.Fatal(err)
	}
	c := stats.Clean
	if c.Kept == 0 {
		t.Fatal("degenerate round: nothing kept")
	}
	if c.Duplicates < c.Kept {
		t.Errorf("duplicates=%d < kept=%d: duplicate copies lost before cleaning", c.Duplicates, c.Kept)
	}
	if c.Total != c.Kept+c.Duplicates || c.WrongRound+c.Late+c.Unsolicited != 0 {
		t.Errorf("clean stats %+v, want total = kept + duplicates", c)
	}
	if catch.Len() != c.Kept {
		t.Errorf("catchment has %d blocks from %d kept replies", catch.Len(), c.Kept)
	}
}
