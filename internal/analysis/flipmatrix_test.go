package analysis

import (
	"slices"
	"strings"
	"testing"

	"verfploeter/internal/colstore"
	"verfploeter/internal/dataset"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// catchmentOver returns an empty catchment whose index holds the given
// blocks (any order, duplicates allowed).
func catchmentOver(nSite int, blocks ...ipv4.Block) *verfploeter.Catchment {
	bs := slices.Clone(blocks)
	slices.Sort(bs)
	return verfploeter.NewCatchment(nSite, colstore.NewIndex(slices.Compact(bs)))
}

func TestFlipMatrix(t *testing.T) {
	// 1.2.3.0/24 stays at site 0; 1.2.4.0/24 flips 0->1; 1.2.5.0/24 goes
	// non-responsive from site 1; 1.2.6.0/24 appears at site 1.
	b := func(s string) ipv4.Block {
		blk, err := ipv4.ParseBlock(s)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	all := []ipv4.Block{b("1.2.3.0/24"), b("1.2.4.0/24"), b("1.2.5.0/24"), b("1.2.6.0/24")}
	prev := catchmentOver(2, all...)
	cur := catchmentOver(2, all...)
	prev.Set(b("1.2.3.0/24"), 0)
	cur.Set(b("1.2.3.0/24"), 0)
	prev.Set(b("1.2.4.0/24"), 0)
	cur.Set(b("1.2.4.0/24"), 1)
	prev.Set(b("1.2.5.0/24"), 1)
	cur.Set(b("1.2.6.0/24"), 1)

	m, err := NewFlipMatrix(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cell[0][0]; got != 1 {
		t.Errorf("stable cell = %d, want 1", got)
	}
	if got := m.Cell[0][1]; got != 1 {
		t.Errorf("flip cell = %d, want 1", got)
	}
	if got := m.Cell[1][2]; got != 1 {
		t.Errorf("to-NR cell = %d, want 1", got)
	}
	if got := m.Cell[2][1]; got != 1 {
		t.Errorf("from-NR cell = %d, want 1", got)
	}
	if m.Flipped() != 1 || m.Stable() != 1 || m.ToNR() != 1 || m.FromNR() != 1 {
		t.Errorf("summary = flipped %d stable %d toNR %d fromNR %d, want all 1",
			m.Flipped(), m.Stable(), m.ToNR(), m.FromNR())
	}

	// The summary must agree with verfploeter.Diff.
	d := verfploeter.Diff(prev, cur)
	if d.Flipped != m.Flipped() || d.Stable != m.Stable() || d.ToNR != m.ToNR() || d.FromNR != m.FromNR() {
		t.Errorf("matrix disagrees with Diff: %+v vs matrix %d/%d/%d/%d",
			d, m.Flipped(), m.Stable(), m.ToNR(), m.FromNR())
	}

	out := m.Render([]string{"LAX", "MIA"})
	for _, want := range []string{"LAX", "MIA", "NR"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered matrix missing label %q:\n%s", want, out)
		}
	}
}

func TestFlipMatrixSiteMismatch(t *testing.T) {
	if _, err := NewFlipMatrix(verfploeter.NewCatchment(2, nil), verfploeter.NewCatchment(3, nil)); err == nil {
		t.Fatal("no error for mismatched site counts")
	}
}

func TestSeriesFlipMatrices(t *testing.T) {
	b := func(s string) ipv4.Block {
		blk, err := ipv4.ParseBlock(s)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	base := catchmentOver(2, b("1.2.3.0/24"), b("1.2.4.0/24"))
	base.Set(b("1.2.3.0/24"), 0)
	base.Set(b("1.2.4.0/24"), 0)
	s := &dataset.Series{
		Baseline: base,
		Epochs: []dataset.SeriesEpoch{
			{Epoch: 1, Changed: []dataset.Delta{{Block: b("1.2.4.0/24"), Site: 1}}},
			{Epoch: 2, Removed: []ipv4.Block{b("1.2.3.0/24")}},
		},
	}
	ms, err := SeriesFlipMatrices(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d matrices, want 2", len(ms))
	}
	if ms[0].Flipped() != 1 || ms[0].Stable() != 1 {
		t.Errorf("epoch 0->1: flipped %d stable %d, want 1/1", ms[0].Flipped(), ms[0].Stable())
	}
	if ms[1].ToNR() != 1 || ms[1].Flipped() != 0 {
		t.Errorf("epoch 1->2: toNR %d flipped %d, want 1/0", ms[1].ToNR(), ms[1].Flipped())
	}
}
