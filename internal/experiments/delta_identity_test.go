package experiments

import (
	"testing"

	"verfploeter/internal/bgp"
	"verfploeter/internal/verfploeter"
)

// TestExperimentsByteIdenticalWithDelta is the end-to-end acceptance
// contract for incremental recomputation: every experiment's rendered
// Result.Text must be byte-for-byte identical whether cache misses run
// cold ComputeEpoch (bgp.SetRouteDelta(false)) or the dirty-cone
// ComputeDelta path. The experiment suite is the adversarial workload —
// prepend sweeps, withdrawals, escalations, and epoch drift all reuse
// predecessor tables on the same topology, so the delta path is
// exercised on every one of the 26 IDs.
func TestExperimentsByteIdenticalWithDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	resetWorlds := func() {
		campaignMu.Lock()
		campaignCache = map[worldKey][]*verfploeter.Catchment{}
		campaignMu.Unlock()
		bgp.ResetRouteCache()
	}

	prevDelta := bgp.SetRouteDelta(false)
	defer bgp.SetRouteDelta(prevDelta)

	resetWorlds()
	cold := map[string]string{}
	for _, id := range IDs() {
		res, err := Run(id, workersConfig(2))
		if err != nil {
			t.Fatalf("%s with delta off: %v", id, err)
		}
		cold[id] = res.Text
	}

	bgp.SetRouteDelta(true)
	resetWorlds()
	for _, id := range IDs() {
		res, err := Run(id, workersConfig(2))
		if err != nil {
			t.Fatalf("%s with delta on: %v", id, err)
		}
		if res.Text != cold[id] {
			t.Errorf("%s: report differs with incremental recomputation:\n--- cold\n%s\n--- delta\n%s",
				id, cold[id], res.Text)
		}
	}
}
