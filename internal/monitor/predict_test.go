package monitor

import (
	"testing"

	"verfploeter/internal/dataset"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
)

// TestPredictModeMatchesFullMode extends the tentpole's byte-identity
// claim to the fused predictor: over the mixed drift schedule
// (operator prepend, external withdraw, tie-break churn), predict mode
// produces per-epoch maps byte-identical to always-full re-probing,
// across every preset deployment.
func TestPredictModeMatchesFullMode(t *testing.T) {
	presets := map[string]func(topology.Size, uint64) *scenario.Scenario{
		"b-root":  scenario.BRoot,
		"tangled": scenario.Tangled,
		"nl":      scenario.NL,
		"cdn":     scenario.CDN,
	}
	for name, mk := range presets {
		t.Run(name, func(t *testing.T) {
			run := func(cfg Config) *Result {
				s := mk(topology.SizeTiny, 11)
				s.OnEpoch(func(sc *scenario.Scenario, e int) {
					switch e {
					case 3:
						down := make([]bool, len(sc.Sites))
						down[1] = true
						sc.ReannounceFull(sc.Prepends(), down, sc.RoutingEpoch())
					case 5:
						sc.ReannounceFull(sc.Prepends(), nil, sc.RoutingEpoch()+1)
					}
				})
				pp := make([]int, len(s.Sites))
				pp[0] = 3
				cfg.Epochs = 7
				cfg.Actions = []Action{{Epoch: 1, Prepend: pp}}
				res, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			full := run(Config{})
			fused := run(Config{Sample: 0.25, Predict: true})
			if len(full.Epochs) != len(fused.Epochs) {
				t.Fatalf("epoch count: full %d fused %d", len(full.Epochs), len(fused.Epochs))
			}
			for e := range full.Epochs {
				if !full.Epochs[e].Map.Equal(fused.Epochs[e].Map) {
					t.Errorf("epoch %d: fused map differs from full-mode map", e)
				}
			}
			if fused.PredictMisses != 0 {
				t.Errorf("control-plane-visible drift produced %d predict misses, want 0",
					fused.PredictMisses)
			}
			if fused.TotalProbes >= full.TotalProbes {
				t.Errorf("fused probes %d not below full probes %d",
					fused.TotalProbes, full.TotalProbes)
			}
			if eventString(full.Events) != eventString(fused.Events) {
				t.Errorf("event streams differ:\nfull:\n%s\nfused:\n%s",
					eventString(full.Events), eventString(fused.Events))
			}
			// Epochs 2, 4 and 6 change nothing: any escalation there is
			// a false alarm.
			for _, e := range []int{2, 4, 6} {
				if w := fused.Epochs[e].WastedEscalations; w != 0 {
					t.Errorf("stable epoch %d wasted %d escalations", e, w)
				}
			}
		})
	}
}

// TestPredictMissSelfHeals is the misprediction-injection test: an
// epoch hook swaps the dataplane's serving assignment behind the
// predictor's back (the control plane never sees a diff, so the
// predictor keeps claiming stable). The canary rotation must observe
// the drift within PredictRefresh epochs, surface it as typed events
// with cause predict-miss, count PredictMisses, and stitch the map
// back to ground truth.
func TestPredictMissSelfHeals(t *testing.T) {
	s := scenario.BRoot(topology.SizeTiny, 7)
	s.OnEpoch(func(sc *scenario.Scenario, e int) {
		if e == 2 {
			// A tie-break-epoch bump deployed straight into the dataplane:
			// sc.Asg (what the predictor diffs) is left untouched.
			_, asg := sc.PredictRouting(sc.Prepends(), sc.DownSites(), sc.RoutingEpoch()+1)
			sc.Net.SetAssignment(asg)
		}
	})
	res, err := Run(s, Config{
		Epochs: 6, Sample: 0.25, Predict: true, PredictRefresh: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.PredictMisses == 0 {
		t.Fatal("out-of-band assignment swap produced no predict misses")
	}
	missEvents := 0
	for _, ev := range res.Events {
		if ev.Cause == dataset.CausePredictMiss {
			missEvents++
			if ev.Epoch < 2 {
				t.Errorf("predict-miss event at epoch %d, before the injection", ev.Epoch)
			}
		}
	}
	if missEvents == 0 {
		t.Fatalf("no events with cause predict-miss; events:\n%s", eventString(res.Events))
	}

	// Self-heal: once escalation fired, the stitched map must equal a
	// fresh full measurement of the perturbed dataplane.
	want, _, err := s.MeasureSubset(900, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Epochs[len(res.Epochs)-1].Map
	if !last.Equal(want) {
		t.Error("final map does not match full ground truth after self-heal")
	}
}
