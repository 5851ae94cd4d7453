package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

func brootRound(t *testing.T) (*scenario.Scenario, sitesAndCatch) {
	t.Helper()
	s := scenario.BRoot(topology.SizeSmall, 1)
	catch, stats, err := s.Measure(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MedianRTT <= 0 {
		t.Fatal("measurement recorded no RTTs")
	}
	sites := make([]Site, len(s.Sites))
	for i, site := range s.Sites {
		sites[i] = Site{Name: site.Code, Lat: site.Lat, Lon: site.Lon}
	}
	return s, sitesAndCatch{sites: sites, catch: catch}
}

type sitesAndCatch struct {
	sites []Site
	catch interface {
		RTTCount() int
		MedianRTT() time.Duration
	}
}

func TestCalibrate(t *testing.T) {
	s, sc := brootRound(t)
	catch, _, err := s.Measure(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Calibrate(catch, s.GeoDB, sc.sites)
	if err != nil {
		t.Fatal(err)
	}
	if m.Samples < 100 {
		t.Errorf("only %d calibration samples", m.Samples)
	}
	if m.PerUnit <= 0 {
		t.Errorf("distance coefficient %v must be positive", m.PerUnit)
	}
	// The model must roughly recover the data plane's latency law:
	// predictions grow with distance.
	if m.Predict(100) <= m.Predict(10) {
		t.Error("prediction not increasing with distance")
	}
	// Predicting at distance 0 gives roughly the base RTT, which must
	// be non-negative and below any long-haul prediction.
	if m.Predict(0) < 0 || m.Predict(0) >= m.Predict(150) {
		t.Errorf("base prediction %v vs long-haul %v", m.Predict(0), m.Predict(150))
	}
}

func TestRecommendPicksUnderservedRegions(t *testing.T) {
	s, sc := brootRound(t)
	catch, _, err := s.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	log := s.RootLog()
	recs, _, err := Recommend(catch, s.GeoDB, log, sc.sites, DefaultCandidates(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// B-Root's two sites are both in the US: the top pick must be
	// outside North America (Europe or Asia hold the unserved load).
	first := recs[0]
	if first.Lon > -130 && first.Lon < -50 && first.Lat > 15 {
		t.Errorf("first recommendation %q is in North America", first.Name)
	}
	// Every step improves, and the marginal gain shrinks (submodular
	// coverage).
	prevGain := time.Duration(1<<62 - 1)
	for i, r := range recs {
		if r.MeanRTTAfter >= r.MeanRTTBefore {
			t.Errorf("recommendation %d does not improve: %v -> %v", i, r.MeanRTTBefore, r.MeanRTTAfter)
		}
		gain := r.MeanRTTBefore - r.MeanRTTAfter
		if gain > prevGain+prevGain/10 {
			t.Errorf("greedy gain grew at step %d: %v after %v", i, gain, prevGain)
		}
		prevGain = gain
		if r.LoadImproved <= 0 || r.LoadImproved > 1 {
			t.Errorf("LoadImproved = %v", r.LoadImproved)
		}
	}
	// Consecutive recommendations chain: after of step i is before of i+1.
	for i := 1; i < len(recs); i++ {
		if recs[i].MeanRTTBefore != recs[i-1].MeanRTTAfter {
			t.Error("recommendation chain broken")
		}
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	s, sc := brootRound(t)
	catch, _, err := s.Measure(4)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := Recommend(catch, s.GeoDB, nil, sc.sites, DefaultCandidates(), 5)
	if err != nil {
		t.Fatal(err)
	}
	curve := CoverageCurve(recs)
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("coverage curve not monotone: %v", curve)
		}
	}
}

func TestRecommendUniformVsLoadWeighted(t *testing.T) {
	// Load weighting should be able to change the ranking; at minimum
	// both must succeed and produce improving recommendations.
	s, sc := brootRound(t)
	catch, _, err := s.Measure(5)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _, err := Recommend(catch, s.GeoDB, nil, sc.sites, DefaultCandidates(), 2)
	if err != nil {
		t.Fatal(err)
	}
	weighted, _, err := Recommend(catch, s.GeoDB, s.RootLog(), sc.sites, DefaultCandidates(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniform) == 0 || len(weighted) == 0 {
		t.Fatal("empty recommendations")
	}
}

func TestCalibrateErrors(t *testing.T) {
	s, sc := brootRound(t)
	// A catchment without RTTs cannot calibrate.
	empty := scenarioEmptyCatchment()
	if _, err := Calibrate(empty, s.GeoDB, sc.sites); err == nil {
		t.Error("empty catchment should fail calibration")
	}
}

func TestSortByImprovement(t *testing.T) {
	recs := []Recommendation{
		{Site: Site{Name: "a"}, MeanRTTBefore: 100, MeanRTTAfter: 90},
		{Site: Site{Name: "b"}, MeanRTTBefore: 100, MeanRTTAfter: 50},
	}
	SortByImprovement(recs)
	if recs[0].Name != "b" {
		t.Error("not sorted by gain")
	}
}

func scenarioEmptyCatchment() *verfploeter.Catchment {
	return verfploeter.NewCatchment(2, nil)
}

// Equal RTT gains must not leave the merged order unspecified: the sort
// falls back to the site name.
func TestSortByImprovementTieBreak(t *testing.T) {
	mk := func(name string, before, after time.Duration) Recommendation {
		return Recommendation{Site: Site{Name: name}, MeanRTTBefore: before, MeanRTTAfter: after}
	}
	recs := []Recommendation{
		mk("tokyo", 100*time.Millisecond, 90*time.Millisecond),
		mk("frankfurt", 80*time.Millisecond, 70*time.Millisecond),
		mk("sydney", 200*time.Millisecond, 150*time.Millisecond),
		mk("amsterdam", 90*time.Millisecond, 80*time.Millisecond),
	}
	for trial := 0; trial < 10; trial++ {
		rand.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		SortByImprovement(recs)
		var names []string
		for _, r := range recs {
			names = append(names, r.Name)
		}
		want := []string{"sydney", "amsterdam", "frankfurt", "tokyo"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("trial %d: order %v, want %v", trial, names, want)
		}
	}
}
