package verfploeter

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
)

func blk(s string) ipv4.Block {
	b, err := ipv4.ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

// catchmentOver returns an empty catchment whose index holds the given
// blocks (any order, duplicates allowed).
func catchmentOver(nSite int, blocks ...string) *Catchment {
	bs := make([]ipv4.Block, len(blocks))
	for i, s := range blocks {
		bs[i] = blk(s)
	}
	slices.Sort(bs)
	return NewCatchment(nSite, colstore.NewIndex(slices.Compact(bs)))
}

func TestCatchmentBasics(t *testing.T) {
	c := catchmentOver(2, "10.0.0.0", "10.0.1.0", "10.0.2.0", "10.0.3.0")
	c.Set(blk("10.0.2.0"), 1)
	c.Set(blk("10.0.0.0"), 0)
	c.Set(blk("10.0.1.0"), 1)

	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if s, ok := c.SiteOf(blk("10.0.1.0")); !ok || s != 1 {
		t.Errorf("SiteOf = %d, %v", s, ok)
	}
	if _, ok := c.SiteOf(blk("10.9.9.0")); ok {
		t.Error("unknown block should miss")
	}
	counts := c.Counts()
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("Counts = %v", counts)
	}
	if f := c.Fraction(1); f < 0.66 || f > 0.67 {
		t.Errorf("Fraction(1) = %v", f)
	}
	blocks := c.Blocks()
	if len(blocks) != 3 {
		t.Fatalf("Blocks = %v, want the 3 mapped", blocks)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Fatal("Blocks not sorted")
		}
	}
	var ranged []ipv4.Block
	c.Range(func(b ipv4.Block, _ int) bool {
		ranged = append(ranged, b)
		return true
	})
	if !slices.Equal(ranged, blocks) {
		t.Errorf("Range order %v, want ascending %v", ranged, blocks)
	}
}

// TestCatchmentOutsideIndex: the index fixes which blocks a catchment
// can hold. Writing any other block panics, like an out-of-range site;
// reads and Delete treat it as absent.
func TestCatchmentOutsideIndex(t *testing.T) {
	c := catchmentOver(2, "10.0.0.0")
	c.SetRTT(blk("10.0.0.0"), 1, time.Millisecond)
	out := blk("10.9.9.0")
	for name, write := range map[string]func(){
		"Set":      func() { c.Set(out, 0) },
		"SetRTT":   func() { c.SetRTT(out, 0, time.Millisecond) },
		"Reassign": func() { c.Reassign(out, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside the index should panic", name)
				}
			}()
			write()
		}()
	}
	c.Delete(out)
	if c.Len() != 1 || c.RTTCount() != 1 {
		t.Errorf("Delete outside the index changed the catchment: len %d, rtts %d", c.Len(), c.RTTCount())
	}
	if _, ok := c.SiteOf(out); ok {
		t.Error("SiteOf outside the index should miss")
	}
	if _, ok := c.RTTOf(out); ok {
		t.Error("RTTOf outside the index should miss")
	}
}

func TestCatchmentFirstObservationWins(t *testing.T) {
	c := catchmentOver(2, "10.0.0.0")
	c.Set(blk("10.0.0.0"), 0)
	c.Set(blk("10.0.0.0"), 1) // mid-round flip: ignored
	if s, _ := c.SiteOf(blk("10.0.0.0")); s != 0 {
		t.Errorf("site = %d, want first observation", s)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCatchmentSetValidation(t *testing.T) {
	c := catchmentOver(2, "10.0.0.0")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range site should panic")
		}
	}()
	c.Set(blk("10.0.0.0"), 5)
}

func TestDiff(t *testing.T) {
	all := []string{"10.0.0.0", "10.0.1.0", "10.0.2.0", "10.0.3.0"}
	prev := catchmentOver(2, all...)
	cur := catchmentOver(2, all...)
	prev.Set(blk("10.0.0.0"), 0) // stays 0 -> stable
	cur.Set(blk("10.0.0.0"), 0)
	prev.Set(blk("10.0.1.0"), 0) // flips to 1
	cur.Set(blk("10.0.1.0"), 1)
	prev.Set(blk("10.0.2.0"), 1) // disappears -> to-NR
	cur.Set(blk("10.0.3.0"), 1)  // appears -> from-NR

	d := Diff(prev, cur)
	if d.Stable != 1 || d.Flipped != 1 || d.ToNR != 1 || d.FromNR != 1 {
		t.Errorf("Diff = %+v", d)
	}
}

// TestChangedBlocks checks the merge against a naive reference over
// Go maps: over one shared index, over two overlapping indexes, with
// one side empty or both, and with every entry changed.
func TestChangedBlocks(t *testing.T) {
	type entry struct {
		site int
		rtt  time.Duration
	}
	entries := func(c *Catchment) map[ipv4.Block]entry {
		m := map[ipv4.Block]entry{}
		c.Range(func(b ipv4.Block, site int) bool {
			rtt, _ := c.RTTOf(b)
			m[b] = entry{site, rtt}
			return true
		})
		return m
	}
	ref := func(prev, cur *Catchment) []ipv4.Block {
		pm, cm := entries(prev), entries(cur)
		var out []ipv4.Block
		for b, pe := range pm {
			if ce, ok := cm[b]; !ok || ce != pe {
				out = append(out, b)
			}
		}
		for b := range cm {
			if _, ok := pm[b]; !ok {
				out = append(out, b)
			}
		}
		slices.Sort(out)
		return out
	}
	r := rand.New(rand.NewPCG(5, 9))
	// over indexes every block in [lo, hi) with probability keep, and
	// maps each indexed block with probability 3/4, an RTT on half.
	over := func(lo, hi int, keep float64) *Catchment {
		var bs []ipv4.Block
		for b := lo; b < hi; b++ {
			if r.Float64() < keep {
				bs = append(bs, ipv4.Block(b))
			}
		}
		c := NewCatchment(3, colstore.NewIndex(bs))
		for _, b := range bs {
			if r.IntN(4) > 0 {
				c.SetRTT(b, r.IntN(3), time.Duration(r.IntN(2)*(1+r.IntN(3))))
			}
		}
		return c
	}
	// perturb returns a copy of c with about frac of its blocks rewritten:
	// deleted, re-sited, re-timed, or newly mapped.
	perturb := func(c *Catchment, frac float64) *Catchment {
		o := c.Clone()
		for _, b := range c.ix.Blocks() {
			if r.Float64() >= frac {
				continue
			}
			if r.IntN(4) == 0 {
				o.Delete(b)
			} else {
				o.Reassign(b, r.IntN(3), time.Duration(r.IntN(3)))
			}
		}
		return o
	}
	base := over(1000, 3000, 0.8)
	allChanged := base.Clone()
	base.Range(func(b ipv4.Block, site int) bool {
		allChanged.Reassign(b, (site+1)%3, 0)
		return true
	})
	for _, tc := range []struct {
		name      string
		prev, cur *Catchment
	}{
		{"same map", base, base},
		{"same index", base, perturb(base, 0.05)},
		{"same index, heavy", base, perturb(base, 0.6)},
		{"different indexes", over(1000, 3000, 0.7), over(1500, 4000, 0.7)},
		{"disjoint indexes", over(0, 500, 0.9), over(500, 1000, 0.9)},
		{"empty prev", NewCatchment(3, nil), base},
		{"empty cur", base, NewCatchment(3, colstore.NewIndex(nil))},
		{"both empty", NewCatchment(3, nil), NewCatchment(3, nil)},
		{"everything changed", base, allChanged},
	} {
		got, want := ChangedBlocks(tc.prev, tc.cur), ref(tc.prev, tc.cur)
		if !slices.Equal(got, want) {
			t.Errorf("%s: ChangedBlocks lists %d blocks, reference %d", tc.name, len(got), len(want))
		}
		if tc.name != "same map" && tc.name != "both empty" && len(want) == 0 {
			t.Errorf("%s: reference found no change; the case tests nothing", tc.name)
		}
	}
}

func TestCleanFilters(t *testing.T) {
	probed := map[ipv4.Addr]bool{
		ipv4.MustParseAddr("10.0.0.1"): true,
		ipv4.MustParseAddr("10.0.1.1"): true,
	}
	replies := []Reply{
		{Site: 0, At: 1, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 7},   // keep
		{Site: 0, At: 2, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 7},   // dup
		{Site: 1, At: 3, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 8},   // wrong round
		{Site: 1, At: 999, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 7}, // late
		{Site: 1, At: 4, Src: ipv4.MustParseAddr("10.0.9.9"), Ident: 7},   // unsolicited
		{Site: 1, At: 5, Src: ipv4.MustParseAddr("10.0.1.1"), Ident: 7},   // keep
	}
	kept, st := Clean(replies, probed, 7, 100)
	if st.Total != 6 || st.Kept != 2 || st.Duplicates != 1 || st.WrongRound != 1 || st.Late != 1 || st.Unsolicited != 1 {
		t.Errorf("CleanStats = %+v", st)
	}
	if len(kept) != 2 || kept[0].Src != ipv4.MustParseAddr("10.0.0.1") {
		t.Errorf("kept = %+v", kept)
	}
}

func TestCleanOrderMattersForDuplicates(t *testing.T) {
	// The first reply wins; later duplicates from the same source are
	// dropped even if they arrived at a different site (a flip during
	// the round).
	probed := map[ipv4.Addr]bool{ipv4.MustParseAddr("10.0.0.1"): true}
	replies := []Reply{
		{Site: 1, At: 1, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 1},
		{Site: 0, At: 2, Src: ipv4.MustParseAddr("10.0.0.1"), Ident: 1},
	}
	kept, _ := Clean(replies, probed, 1, 100)
	if len(kept) != 1 || kept[0].Site != 1 {
		t.Errorf("kept = %+v", kept)
	}
}
