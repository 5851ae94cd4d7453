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
