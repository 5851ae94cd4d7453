package analysis

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"verfploeter/internal/atlas"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

func brootWorld(t *testing.T) (*scenario.Scenario, *verfploeter.Catchment, *atlas.Result) {
	t.Helper()
	s := scenario.BRoot(topology.SizeSmall, 1)
	catch, _, err := s.Measure(1)
	if err != nil {
		t.Fatal(err)
	}
	plat := atlas.New(s.Top, 120, s.Seed) // scaled-down 9.8k VPs
	res := plat.Measure(s.Net, s, 0)
	return s, catch, res
}

func TestCompareCoverage(t *testing.T) {
	s, catch, res := brootWorld(t)
	cov := CompareCoverage(res, catch, s.Hitlist, s.GeoDB)

	if cov.AtlasVPsConsidered != 120 {
		t.Errorf("AtlasVPsConsidered = %d", cov.AtlasVPsConsidered)
	}
	if cov.AtlasVPsResponding+cov.AtlasVPsNonResponding != cov.AtlasVPsConsidered {
		t.Error("Atlas VP accounting broken")
	}
	if cov.AtlasBlocksResponding > cov.AtlasBlocksConsidered {
		t.Error("responding blocks exceed considered")
	}
	if cov.VerfConsidered != s.Hitlist.Len() {
		t.Errorf("VerfConsidered = %d", cov.VerfConsidered)
	}
	if cov.VerfResponding+cov.VerfNonResponding != cov.VerfConsidered {
		t.Error("Verfploeter accounting broken")
	}
	if cov.VerfGeolocatable+cov.VerfNoLocation != cov.VerfResponding {
		t.Error("geolocation accounting broken")
	}
	// The headline: orders of magnitude more blocks than Atlas.
	if cov.Ratio < 20 {
		t.Errorf("coverage ratio = %.1fx, want >> 1 (paper: 430x)", cov.Ratio)
	}
	// Most Atlas blocks also seen by Verfploeter (paper: 77%).
	overlapFrac := float64(cov.Overlap) / float64(cov.AtlasBlocksResponding)
	if overlapFrac < 0.35 {
		t.Errorf("only %.2f of Atlas blocks seen by Verfploeter", overlapFrac)
	}
	if cov.VerfUnique <= cov.AtlasUnique {
		t.Error("Verfploeter should see far more unique blocks")
	}
}

func tangledWorld(t *testing.T) (*scenario.Scenario, *verfploeter.Catchment) {
	t.Helper()
	s := scenario.Tangled(topology.SizeSmall, 1)
	catch, _, err := s.Measure(1)
	if err != nil {
		t.Fatal(err)
	}
	return s, catch
}

func TestDivisions(t *testing.T) {
	s, catch := tangledWorld(t)
	d := Divisions(s.Top, catch, nil)
	if d.MappedASes == 0 {
		t.Fatal("no mapped ASes")
	}
	if d.SplitASes == 0 {
		t.Error("expected some split ASes (multi-PoP + multihomed)")
	}
	frac := d.SplitFrac()
	// Paper: 12.7% of ASes split (with 2-9 sites); ranges are loose.
	if frac < 0.01 || frac > 0.5 {
		t.Errorf("split fraction = %.3f", frac)
	}
	sum := 0
	for _, n := range d.SitesHist {
		sum += n
	}
	if sum != d.MappedASes {
		t.Error("SitesHist does not sum to MappedASes")
	}
	if d.SitesHist[0] != d.MappedASes-d.SplitASes {
		t.Error("single-site histogram bucket inconsistent")
	}
}

func TestDivisionsInstabilityFilter(t *testing.T) {
	s, catch, _ := brootWorld(t)
	// Mark some mapped blocks as unstable: divisions must not grow.
	unstable := ipv4.NewBlockSet(0)
	i := 0
	catch.Range(func(b ipv4.Block, _ int) bool {
		if i%3 == 0 {
			unstable.Add(b)
		}
		i++
		return true
	})
	all := Divisions(s.Top, catch, nil)
	filtered := Divisions(s.Top, catch, unstable)
	if filtered.SplitASes > all.SplitASes {
		t.Errorf("filtering instability increased splits: %d > %d",
			filtered.SplitASes, all.SplitASes)
	}
}

func TestPrefixSpread(t *testing.T) {
	s, catch := tangledWorld(t)
	rows := PrefixSpread(s.Top, catch, nil)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.P5 > r.P25 || r.P25 > r.Median || r.Median > r.P75 || r.P75 > r.P95 {
			t.Errorf("percentiles out of order: %+v", r)
		}
	}
	// Figure 7's shape: ASes seen at more sites announce more prefixes
	// (compare the single-site and the most-split rows).
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		if last.Median < first.Median {
			t.Errorf("median prefixes should grow with sites: %v -> %v",
				first.Median, last.Median)
		}
	}
}

func TestSitesByPrefixLen(t *testing.T) {
	s, catch := tangledWorld(t)
	rows := SitesByPrefixLen(s.Top, catch, nil)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var shortFrac, longFrac float64
	var shortSeen, longSeen bool
	for _, r := range rows {
		sum := 0
		for _, n := range r.SitesHist {
			sum += n
		}
		if sum != r.Prefixes {
			t.Errorf("/%d histogram sums to %d of %d", r.Bits, sum, r.Prefixes)
		}
		if r.Bits <= 16 && r.Prefixes >= 3 && !shortSeen {
			shortFrac, shortSeen = r.FracMultiSite(), true
		}
		if r.Bits == 24 {
			longFrac, longSeen = r.FracMultiSite(), true
		}
	}
	// Figure 8's shape: large prefixes split more often than /24s.
	if shortSeen && longSeen && shortFrac < longFrac {
		t.Errorf("short prefixes should split more: /<=16 %.2f vs /24 %.2f", shortFrac, longFrac)
	}
}

func TestStabilityAndFlipAttribution(t *testing.T) {
	s := scenario.Tangled(topology.SizeSmall, 2)
	rounds, err := s.MeasureRounds(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	series := Stability(rounds)
	if len(series) != 5 {
		t.Fatalf("%d series points", len(series))
	}
	med := MedianStability(series)
	total := med.Stable + med.Flipped + med.ToNR
	if total == 0 {
		t.Fatal("empty stability")
	}
	stableFrac := float64(med.Stable) / float64(total)
	if stableFrac < 0.85 {
		t.Errorf("stable fraction %.3f, want ~0.95", stableFrac)
	}
	flipFrac := float64(med.Flipped) / float64(total)
	if flipFrac > 0.05 {
		t.Errorf("flip fraction %.4f, want ~0.001-0.01", flipFrac)
	}

	unstable := UnstableBlocks(rounds)
	if med.Flipped > 0 && unstable.Len() == 0 {
		t.Error("flips observed but no unstable blocks recorded")
	}

	rows := FlipAttribution(s.Top, rounds)
	if len(rows) == 0 {
		t.Skip("no flips this seed")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Flips > rows[i-1].Flips {
			t.Fatal("FlipAttribution not sorted")
		}
	}
	// Flips concentrate: top-5 share well above uniform.
	top5 := TopFlipShare(rows, 5)
	if len(rows) > 10 && top5 < 0.3 {
		t.Errorf("top-5 flip share %.2f, want concentration (paper: 0.63)", top5)
	}
	// CHINANET should be prominent among flippers when present.
	found := false
	for i, r := range rows {
		if r.ASN == 4134 && i < 5 {
			found = true
		}
	}
	if !found {
		t.Log("note: CHINANET not in top-5 flippers this seed")
	}
}

func TestStabilityEdgeCases(t *testing.T) {
	if Stability(nil) != nil {
		t.Error("nil rounds should give nil")
	}
	one := []*verfploeter.Catchment{verfploeter.NewCatchment(2, nil)}
	if Stability(one) != nil {
		t.Error("single round should give nil")
	}
	if (MedianStability(nil) != verfploeter.DiffStats{}) {
		t.Error("empty median should be zero")
	}
	if TopFlipShare(nil, 5) != 0 {
		t.Error("empty flip share should be 0")
	}
}

func TestGrids(t *testing.T) {
	s, catch, res := brootWorld(t)

	cg := CatchmentGrid(catch, s.GeoDB)
	if cg.Len() == 0 {
		t.Fatal("empty catchment grid")
	}
	ag := AtlasGrid(res, 2)
	if ag.Len() == 0 {
		t.Fatal("empty atlas grid")
	}
	// Verfploeter's grid must cover far more cells than Atlas's —
	// that is Figure 2's visual point.
	if cg.Len() <= ag.Len() {
		t.Errorf("catchment grid %d cells <= atlas grid %d", cg.Len(), ag.Len())
	}

	log := s.RootLog()
	lg := LoadGrid(catch, log, s.GeoDB, loadmodel.ByQueries)
	if lg.Len() == 0 {
		t.Fatal("empty load grid")
	}

	var buf bytes.Buffer
	if err := RenderGrid(&buf, cg, s.SiteLetters()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "L") || !strings.Contains(out, "M") {
		t.Error("rendered map should show both site letters")
	}
	if !strings.Contains(out, "cont") {
		t.Error("rendered map should include the continent table")
	}
}

func TestCountryBreakdown(t *testing.T) {
	s, catch, _ := brootWorld(t)
	rows := CountryBreakdown(s.Top, catch)
	if len(rows) < 10 {
		t.Fatalf("only %d countries", len(rows))
	}
	total := 0
	for i, r := range rows {
		if i > 0 && r.Blocks > rows[i-1].Blocks {
			t.Fatal("rows not sorted by blocks")
		}
		sum := 0
		for _, n := range r.BySite {
			sum += n
		}
		if sum != r.Blocks {
			t.Fatalf("%s: per-site sum %d != blocks %d", r.Country, sum, r.Blocks)
		}
		total += r.Blocks
		if d := r.DominantSite(); d < 0 || d >= 2 {
			t.Fatalf("%s: dominant site %d", r.Country, d)
		}
		if sh := r.Share(r.DominantSite()); sh < 0.5-1e-9 && len(r.BySite) == 2 && r.Blocks > 1 {
			// With two sites the dominant one holds at least half.
			t.Fatalf("%s: dominant share %.2f", r.Country, sh)
		}
	}
	if total != catch.Len() {
		t.Fatalf("breakdown covers %d of %d blocks", total, catch.Len())
	}
	// §5.1's question is answerable: China appears with data.
	foundCN := false
	for _, r := range rows {
		if r.Country == "CN" && r.Blocks > 0 {
			foundCN = true
		}
	}
	if !foundCN {
		t.Error("no China rows — the §5.1 coverage claim needs them")
	}
	// Edge cases.
	if (CountryRow{}).DominantSite() != -1 {
		t.Error("empty row dominant site should be -1")
	}
	if (CountryRow{}).Share(0) != 0 {
		t.Error("empty row share should be 0")
	}
}

func TestConsensus(t *testing.T) {
	mk := func(pairs ...any) *verfploeter.Catchment {
		var blocks []ipv4.Block
		for i := 0; i < len(pairs); i += 2 {
			blocks = append(blocks, pairs[i].(ipv4.Block))
		}
		c := catchmentOver(3, blocks...)
		for i := 0; i < len(pairs); i += 2 {
			c.Set(pairs[i].(ipv4.Block), pairs[i+1].(int))
		}
		return c
	}
	b1, b2, b3 := ipv4.Block(1), ipv4.Block(2), ipv4.Block(3)
	rounds := []*verfploeter.Catchment{
		mk(b1, 0, b2, 1, b3, 2),
		mk(b1, 0, b2, 1),
		mk(b1, 0, b2, 2),
	}
	c := Consensus(rounds, 2)
	if s, ok := c.SiteOf(b1); !ok || s != 0 {
		t.Errorf("b1 = %d, %v", s, ok)
	}
	if s, ok := c.SiteOf(b2); !ok || s != 1 {
		t.Errorf("b2 should take the 2-of-3 majority, got %d, %v", s, ok)
	}
	if _, ok := c.SiteOf(b3); ok {
		t.Error("b3 seen once should fall below minRounds=2")
	}
	// minRounds=1 keeps it.
	if _, ok := Consensus(rounds, 1).SiteOf(b3); !ok {
		t.Error("minRounds=1 should keep single-sighting blocks")
	}
	if Consensus(nil, 1).Len() != 0 {
		t.Error("empty campaign should give empty catchment")
	}
}

func TestConsensusOnCampaign(t *testing.T) {
	s := scenario.Tangled(topology.SizeTiny, 3)
	rounds, err := s.MeasureRounds(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := Consensus(rounds, 3)
	if c.Len() == 0 {
		t.Fatal("empty consensus")
	}
	// Consensus is at least as large as the intersection and no larger
	// than the union of rounds.
	union := ipv4.NewBlockSet(0)
	for _, r := range rounds {
		r.Range(func(b ipv4.Block, _ int) bool { union.Add(b); return true })
	}
	if c.Len() > union.Len() {
		t.Fatalf("consensus %d exceeds union %d", c.Len(), union.Len())
	}
	// A consensus block's site should be the modal site across rounds.
	checked := 0
	c.Range(func(b ipv4.Block, site int) bool {
		counts := map[int]int{}
		for _, r := range rounds {
			if s2, ok := r.SiteOf(b); ok {
				counts[s2]++
			}
		}
		bestN := 0
		for _, n := range counts {
			if n > bestN {
				bestN = n
			}
		}
		if counts[site] != bestN {
			t.Fatalf("block %v consensus site %d is not modal", b, site)
		}
		checked++
		return checked < 500
	})
	return
}

// Both report sorts carry explicit tie-break keys (country code, ASN) so
// repeated runs over the same inputs — whose aggregation walks Go maps in
// randomized order — always emit rows in the same order.
func TestReportOrderingDeterministic(t *testing.T) {
	s := scenario.BRoot(topology.SizeTiny, 3)
	rounds, err := s.MeasureRounds(3, 1)
	if err != nil {
		t.Fatal(err)
	}

	wantRows := CountryBreakdown(s.Top, rounds[0])
	wantFlips := FlipAttribution(s.Top, rounds)
	if len(wantRows) < 2 {
		t.Fatalf("want multiple country rows, got %d", len(wantRows))
	}
	for i := 0; i < 25; i++ {
		if got := CountryBreakdown(s.Top, rounds[0]); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("run %d: CountryBreakdown ordering changed", i)
		}
		if got := FlipAttribution(s.Top, rounds); !reflect.DeepEqual(got, wantFlips) {
			t.Fatalf("run %d: FlipAttribution ordering changed", i)
		}
	}
}
