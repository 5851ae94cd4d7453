package experiments

import (
	"testing"

	"verfploeter/internal/bgp"
	"verfploeter/internal/verfploeter"
)

// TestExperimentsByteIdenticalWithRouteCache is the acceptance contract
// for the converged-table cache: every experiment's rendered Result.Text
// must be byte-for-byte identical with the cache enabled and disabled
// (bgp.SetRouteCache(false), the escape hatch). A divergence means a cached
// table differs from a freshly converged one — the one bug class the
// cache must never introduce.
func TestExperimentsByteIdenticalWithRouteCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	resetWorlds := func() {
		// Drop the campaign cache between passes for the same reason the
		// workers test does: served rounds would mask routing divergence.
		campaignMu.Lock()
		campaignCache = map[worldKey][]*verfploeter.Catchment{}
		campaignMu.Unlock()
	}

	prevOn := bgp.SetRouteCache(false)
	defer bgp.SetRouteCache(prevOn)
	bgp.ResetRouteCache()
	uncached := map[string]string{}
	for _, id := range IDs() {
		res, err := Run(id, workersConfig(2))
		if err != nil {
			t.Fatalf("%s uncached: %v", id, err)
		}
		uncached[id] = res.Text
	}

	resetWorlds()
	bgp.SetRouteCache(true)
	bgp.ResetRouteCache()
	defer bgp.ResetRouteCache()
	for _, id := range IDs() {
		res, err := Run(id, workersConfig(2))
		if err != nil {
			t.Fatalf("%s cached: %v", id, err)
		}
		if res.Text != uncached[id] {
			t.Errorf("%s: report differs between cache off and on:\n--- cache off\n%s\n--- cache on\n%s",
				id, uncached[id], res.Text)
		}
	}
	if hits, misses := bgp.RouteCacheStats(); hits == 0 {
		t.Errorf("cached pass recorded no hits (misses=%d); identity check is vacuous", misses)
	}
}
