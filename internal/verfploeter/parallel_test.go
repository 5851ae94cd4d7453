package verfploeter

import (
	"runtime"
	"testing"

	"verfploeter/internal/dataplane"
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
