package analysis

import (
	"math"
	"testing"

	"verfploeter/internal/atlas"
	"verfploeter/internal/geo"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// Every ratio helper in this package divides by a population count that
// a degraded sweep (full fault injection, an empty subset, a dark site)
// can legitimately drive to zero. These tables pin the guarded behavior:
// 0, never NaN or ±Inf, so reports render cleanly no matter how thin
// the map got.

func TestMapCoverageRate(t *testing.T) {
	cases := []struct {
		name string
		m    MapCoverage
		want float64
	}{
		{"empty sweep", MapCoverage{Targets: 0, Mapped: 0}, 0},
		{"zero targets nonzero mapped", MapCoverage{Targets: 0, Mapped: 5}, 0},
		{"nothing answered", MapCoverage{Targets: 100, Mapped: 0}, 0},
		{"healthy", MapCoverage{Targets: 200, Mapped: 110}, 0.55},
		{"full", MapCoverage{Targets: 7, Mapped: 7}, 1},
	}
	for _, tc := range cases {
		if got := tc.m.Rate(); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: Rate() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCountryRowShare(t *testing.T) {
	cases := []struct {
		name string
		row  CountryRow
		site int
		want float64
	}{
		{"empty country", CountryRow{Country: "XX"}, 0, 0},
		{"zero blocks with sites", CountryRow{Blocks: 0, BySite: []int{0, 0}}, 1, 0},
		{"site below range", CountryRow{Blocks: 4, BySite: []int{4}}, -1, 0},
		{"site above range", CountryRow{Blocks: 4, BySite: []int{4}}, 3, 0},
		{"half", CountryRow{Blocks: 4, BySite: []int{2, 2}}, 0, 0.5},
		{"all one site", CountryRow{Blocks: 3, BySite: []int{0, 3}}, 1, 1},
	}
	for _, tc := range cases {
		if got := tc.row.Share(tc.site); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: Share(%d) = %v, want %v", tc.name, tc.site, got, tc.want)
		}
	}
}

func TestCountryRowDominantSiteEmpty(t *testing.T) {
	if got := (CountryRow{}).DominantSite(); got != -1 {
		t.Errorf("empty row DominantSite() = %d, want -1", got)
	}
	if got := (CountryRow{Blocks: 2, BySite: []int{0, 0, 2}}).DominantSite(); got != 2 {
		t.Errorf("DominantSite() = %d, want 2", got)
	}
}

func TestDivisionStatsSplitFrac(t *testing.T) {
	cases := []struct {
		name string
		d    DivisionStats
		want float64
	}{
		{"no mapped ASes", DivisionStats{}, 0},
		{"zero mapped nonzero split", DivisionStats{MappedASes: 0, SplitASes: 3}, 0},
		{"quarter split", DivisionStats{MappedASes: 8, SplitASes: 2}, 0.25},
	}
	for _, tc := range cases {
		if got := tc.d.SplitFrac(); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: SplitFrac() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPrefixLenRowFracMultiSite(t *testing.T) {
	cases := []struct {
		name string
		r    PrefixLenRow
		want float64
	}{
		{"no prefixes", PrefixLenRow{Bits: 16}, 0},
		{"zero prefixes nonempty hist", PrefixLenRow{Bits: 20, SitesHist: []int{0, 2}}, 0},
		{"all single-site", PrefixLenRow{Bits: 24, Prefixes: 5, SitesHist: []int{5}}, 0},
		{"mixed", PrefixLenRow{Bits: 16, Prefixes: 4, SitesHist: []int{1, 2, 1}}, 0.75},
	}
	for _, tc := range cases {
		if got := tc.r.FracMultiSite(); got != tc.want || math.IsNaN(got) {
			t.Errorf("%s: FracMultiSite() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPercentileEmptyAndEdges(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{}, 0.95); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 0.5); got != 3 {
		t.Errorf("percentile(single, 0.5) = %v, want 3", got)
	}
	if got := percentile([]float64{1, 3}, 1); got != 3 {
		t.Errorf("percentile(_, 1) = %v, want 3", got)
	}
	if got := percentile([]float64{1, 3}, 0.5); got != 2 {
		t.Errorf("percentile(_, 0.5) = %v, want 2", got)
	}
}

// TestCompareCoverageEmptyInputs drives the full Table 4 assembly with
// nothing responding on either side: every derived field, the headline
// Ratio included, must come out zero rather than NaN/Inf.
func TestCompareCoverageEmptyInputs(t *testing.T) {
	ar := &atlas.Result{Blocks: ipv4.NewBlockSet(0)}
	c := CompareCoverage(ar, verfploeter.NewCatchment(2, nil), &hitlist.Hitlist{}, &geo.DB{})
	if c.Ratio != 0 || math.IsNaN(c.Ratio) || math.IsInf(c.Ratio, 0) {
		t.Errorf("Ratio = %v, want 0", c.Ratio)
	}
	if c.Overlap != 0 || c.AtlasUnique != 0 || c.VerfUnique != 0 {
		t.Errorf("cross coverage = %d/%d/%d, want all zero", c.Overlap, c.AtlasUnique, c.VerfUnique)
	}
}

func TestTopFlipShareEmpty(t *testing.T) {
	if got := TopFlipShare(nil, 5); got != 0 {
		t.Errorf("TopFlipShare(nil) = %v, want 0", got)
	}
	rows := []FlipAS{{Frac: 0.5}, {Frac: 0.3}, {Frac: 0.2}}
	if got := TopFlipShare(rows, 2); got != 0.8 {
		t.Errorf("TopFlipShare(top 2) = %v, want 0.8", got)
	}
	if got := TopFlipShare(rows, 10); got != 1.0 {
		t.Errorf("TopFlipShare(n beyond rows) = %v, want 1", got)
	}
}
