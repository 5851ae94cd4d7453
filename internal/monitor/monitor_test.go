package monitor

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"verfploeter/internal/dataset"
	"verfploeter/internal/faults"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// driftWorld builds the shared test deployment: B-Root (two sites) with
// a drift schedule combining operator actions (returned as Actions) and
// external world changes (epoch hooks the classifier cannot see):
//
//	epoch 1: operator prepends LAX           -> flips, cause=prepend
//	epoch 2: stable
//	epoch 3: hook withdraws site 1 (MIA)     -> site-dark, cause=blackout
//	epoch 4: stable (MIA still out)
//	epoch 5: hook restores MIA, bumps the
//	         routing epoch (tie-break drift) -> flips, cause=unexplained
//	epoch 6: stable
func driftWorld(t *testing.T, seed uint64) (*scenario.Scenario, []Action) {
	t.Helper()
	s := scenario.BRoot(topology.SizeTiny, seed)
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
	actions := []Action{{Epoch: 1, Prepend: []int{3, 0}}}
	return s, actions
}

func runPair(t *testing.T, seed uint64, sample float64, profile faults.Profile, retries int) (full, sampled *Result) {
	t.Helper()
	base, actions := driftWorld(t, seed)
	if profile.Enabled() {
		profile.Seed = seed
		base.SetFaults(profile)
	}
	base.Retries = retries

	mk := func(sampleRate float64) *Result {
		res, err := Run(base.Fork(), Config{
			Epochs: 7, Sample: sampleRate, Actions: actions,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return mk(0), mk(sample)
}

func eventString(evs []dataset.Event) string {
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSampleModeMatchesFullMode is the tentpole's central claim: with
// escalation triggering, adaptive partial re-probing produces per-epoch
// maps and events byte-identical to always-full re-probing — at a
// fraction of the probe volume on stable epochs. Checked fault-free and
// under a lossy profile with retries.
func TestSampleModeMatchesFullMode(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile faults.Profile
		retries int
	}{
		{"clean", faults.None(), 0},
		{"moderate-faults", faults.Moderate(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, sampled := runPair(t, 7, 0.25, tc.profile, tc.retries)
			if len(full.Epochs) != len(sampled.Epochs) {
				t.Fatalf("epoch counts differ: %d vs %d", len(full.Epochs), len(sampled.Epochs))
			}
			for e := range full.Epochs {
				if !full.Epochs[e].Map.Equal(sampled.Epochs[e].Map) {
					t.Errorf("epoch %d: sample-mode map differs from full-mode", e)
				}
			}
			if fe, se := eventString(full.Events), eventString(sampled.Events); fe != se {
				t.Errorf("event streams differ:\nfull:\n%s\nsampled:\n%s", fe, se)
			}
			// Stable epochs (2, 4, 6) must escalate nothing and probe far
			// less than a full sweep. (A 0.25 sample caps savings near 4x;
			// the 4x-at-0.125 claim is TestStableNoEvents and ext-drift.)
			for _, e := range []int{2, 4, 6} {
				er := sampled.Epochs[e]
				if er.EscalatedStrata != 0 {
					t.Errorf("stable epoch %d escalated %d strata", e, er.EscalatedStrata)
				}
				if er.Probes*3 > full.Epochs[e].Probes {
					t.Errorf("stable epoch %d: %d probes vs %d full — less than 3x savings",
						e, er.Probes, full.Epochs[e].Probes)
				}
			}
			if sampled.TotalProbes >= full.TotalProbes {
				t.Errorf("sampling saved nothing: %d vs %d probes", sampled.TotalProbes, full.TotalProbes)
			}
		})
	}
}

// TestMonitorWorkerDeterminism: the whole campaign — maps, deltas,
// events, serialized series — is byte-identical at any worker count.
// The second row adds the predictor and query-weighted load shares, so
// the session's carried counts and shares are covered too.
func TestMonitorWorkerDeterminism(t *testing.T) {
	for _, predict := range []bool{false, true} {
		serialized := make(map[int][]byte)
		for _, w := range []int{1, 7} {
			base, actions := driftWorld(t, 11)
			base.Workers = w
			cfg := Config{Epochs: 7, Sample: 0.25, Actions: actions}
			if predict {
				cfg.Sample, cfg.Predict, cfg.LoadLog = 0.125, true, base.RootLog()
			}
			res, err := Run(base.Fork(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dataset.WriteSeries(&buf, res.Series); err != nil {
				t.Fatal(err)
			}
			serialized[w] = buf.Bytes()
		}
		if !bytes.Equal(serialized[1], serialized[7]) {
			t.Fatalf("predict=%v: serialized series differs between workers=1 and workers=7", predict)
		}
	}
}

// TestEventCauses checks the classifier's attribution on the drift
// schedule: operator prepend -> prepend; hook blackout -> blackout (with
// a site-dark event); hook tie-break drift -> unexplained (with a
// site-restored event).
func TestEventCauses(t *testing.T) {
	full, _ := runPair(t, 7, 0.25, faults.None(), 0)

	causeAt := map[int]dataset.Cause{}
	types := map[int]map[dataset.EventType]bool{}
	for _, ev := range full.Events {
		causeAt[ev.Epoch] = ev.Cause
		if types[ev.Epoch] == nil {
			types[ev.Epoch] = map[dataset.EventType]bool{}
		}
		types[ev.Epoch][ev.Type] = true
	}
	if causeAt[1] != dataset.CausePrepend {
		t.Errorf("epoch 1 cause = %v, want prepend", causeAt[1])
	}
	if !types[1][dataset.EventFlips] {
		t.Errorf("epoch 1: no flips event after a prepend change")
	}
	if causeAt[3] != dataset.CauseBlackout {
		t.Errorf("epoch 3 cause = %v, want blackout (hook withdrawal, no operator action)", causeAt[3])
	}
	if !types[3][dataset.EventSiteDark] {
		t.Errorf("epoch 3: no site-dark event after the hook withdrew MIA")
	}
	if causeAt[5] != dataset.CauseUnexplained {
		t.Errorf("epoch 5 cause = %v, want unexplained (tie-break drift)", causeAt[5])
	}
	if !types[5][dataset.EventSiteRestored] {
		t.Errorf("epoch 5: no site-restored event after MIA came back")
	}
	for _, e := range []int{2, 4, 6} {
		if len(types[e]) != 0 {
			t.Errorf("stable epoch %d raised events: %v", e, types[e])
		}
	}
}

// TestOperatorWithdrawCause: the same withdrawal done *by the operator*
// (an Action) classifies as withdraw, not blackout.
func TestOperatorWithdrawCause(t *testing.T) {
	base := scenario.BRoot(topology.SizeTiny, 7)
	down := []bool{false, true}
	res, err := Run(base.Fork(), Config{
		Epochs:  3,
		Actions: []Action{{Epoch: 1, Down: down}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawDark := false
	for _, ev := range res.Events {
		if ev.Epoch == 1 && ev.Type == dataset.EventSiteDark {
			sawDark = true
			if ev.Cause != dataset.CauseWithdraw {
				t.Errorf("operator withdrawal classified %v, want withdraw", ev.Cause)
			}
			if ev.Site != 1 {
				t.Errorf("site-dark on site %d, want 1", ev.Site)
			}
		}
	}
	if !sawDark {
		t.Fatal("no site-dark event for an operator withdrawal")
	}
}

// TestSeriesTimeTravel: the persisted series reconstructs every epoch's
// map exactly, through a write/read round trip.
func TestSeriesTimeTravel(t *testing.T) {
	full, sampled := runPair(t, 7, 0.25, faults.None(), 0)
	for name, res := range map[string]*Result{"full": full, "sampled": sampled} {
		var buf bytes.Buffer
		if err := dataset.WriteSeries(&buf, res.Series); err != nil {
			t.Fatal(err)
		}
		loaded, err := dataset.ReadSeries(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != len(res.Epochs) {
			t.Fatalf("%s: series length %d, want %d", name, loaded.Len(), len(res.Epochs))
		}
		for e := range res.Epochs {
			got, err := loaded.At(e)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(res.Epochs[e].Map) {
				t.Errorf("%s: reconstructed epoch %d differs from the measured map", name, e)
			}
		}
		if _, err := loaded.At(len(res.Epochs) + 1); err == nil {
			t.Errorf("%s: At past the end did not error", name)
		}
	}
}

// TestStableNoEvents: with no schedule at all, every epoch carries the
// baseline unchanged — zero events, zero escalations, and the sampling
// saves at least 4x probe volume per epoch.
func TestStableNoEvents(t *testing.T) {
	base := scenario.BRoot(topology.SizeTiny, 3)
	res, err := Run(base.Fork(), Config{Epochs: 5, Sample: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 0 {
		t.Fatalf("stable run raised %d events: %s", len(res.Events), eventString(res.Events))
	}
	for e := 1; e < len(res.Epochs); e++ {
		er := res.Epochs[e]
		if er.EscalatedStrata != 0 {
			t.Errorf("epoch %d escalated %d strata on a stable topology", e, er.EscalatedStrata)
		}
		if !er.Map.Equal(res.Epochs[0].Map) {
			t.Errorf("epoch %d map drifted on a stable topology", e)
		}
		if er.Probes*4 > res.BaselineProbes {
			t.Errorf("epoch %d: %d probes vs %d baseline — less than 4x savings", e, er.Probes, res.BaselineProbes)
		}
	}
	// The delta encoding of a stable run is empty.
	for _, se := range res.Series.Epochs {
		if len(se.Changed)+len(se.Added)+len(se.Removed) != 0 {
			t.Errorf("epoch %d has non-empty deltas on a stable topology", se.Epoch)
		}
	}
}

// TestMonitorGolden pins the check.sh smoke line: fixed seed, fixed
// schedule, fixed flip counts. Recalibrate only when the probe engine or
// routing model changes on purpose.
func TestMonitorGolden(t *testing.T) {
	full, sampled := runPair(t, 7, 0.25, faults.None(), 0)
	line := func(r *Result) string {
		flips := 0
		for _, ev := range r.Events {
			if ev.Type == dataset.EventFlips {
				flips += ev.Blocks
			}
		}
		return fmt.Sprintf("events=%d flips=%d probes=%d", len(r.Events), flips, r.TotalProbes)
	}
	t.Logf("full:    %s", line(full))
	t.Logf("sampled: %s", line(sampled))
	if fl, sl := line(full), line(sampled); strings.Split(fl, " probes")[0] != strings.Split(sl, " probes")[0] {
		t.Errorf("full and sampled disagree on events/flips: %q vs %q", fl, sl)
	}
}

// TestStableEpochsEscalateNothing is the alias false alarm's regression
// test: on a medium-tier world with no routing change, no epoch after
// the baseline may escalate a stratum, raise an event, or move the map,
// sampled or predicted. A sampled block whose carried entry was won by
// a cross-block alias must be measured with its topology predecessor,
// or it reads as gone and its stratum escalates for nothing.
func TestStableEpochsEscalateNothing(t *testing.T) {
	for _, seed := range []uint64{1, 3, 7} {
		for _, predict := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/predict=%v", seed, predict), func(t *testing.T) {
				s := scenario.BRoot(topology.SizeMedium, seed)
				cfg := Config{Epochs: 4, Sample: 0.125, Predict: predict}
				res, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := buildStrata(s, cfg.fill().Strata)
				if len(res.Events) != 0 {
					t.Errorf("stable run raised events:\n%s", eventString(res.Events))
				}
				for _, er := range res.Epochs[1:] {
					if er.EscalatedStrata != 0 || er.WastedEscalations != 0 {
						t.Errorf("epoch %d escalated %d strata (%d wasted)",
							er.Epoch, er.EscalatedStrata, er.WastedEscalations)
					}
					if !er.Map.Equal(res.Epochs[0].Map) {
						t.Errorf("epoch %d map differs from the baseline", er.Epoch)
					}
					// Sampled counts the sample, not the alias sources
					// measured beside it (predict mode probes a subset).
					sample := st.sampleSet(er.Epoch, cfg.Sample, s.Seed).Len()
					if er.Sampled > sample || !predict && er.Sampled != sample {
						t.Errorf("epoch %d: Sampled %d, sample holds %d blocks", er.Epoch, er.Sampled, sample)
					}
				}
			})
		}
	}
}

// TestWastedEscalations: a stratum re-probe counts as wasted exactly
// when it changes no carried entry, and the stitch still reproduces the
// full sweep. Escalating every stratum of an unchanged world wastes all
// of them; after a prepend, only the strata holding no changed block.
func TestWastedEscalations(t *testing.T) {
	s := scenario.BRoot(topology.SizeTiny, 7)
	cfg := Config{}.fill()
	st := buildStrata(s, cfg.Strata)
	base, _, err := s.MeasureSubset(cfg.RoundID, nil)
	if err != nil {
		t.Fatal(err)
	}
	stitchAll := func() (*verfploeter.Catchment, EpochResult) {
		var er EpochResult
		cur, _, err := stitchEscalated(s, cfg, st, base, allStrata(st.n), &er)
		if err != nil {
			t.Fatal(err)
		}
		return cur, er
	}

	cur, er := stitchAll()
	if er.WastedEscalations != st.n || !cur.Equal(base) {
		t.Errorf("unchanged world: %d of %d strata wasted, map equal %v",
			er.WastedEscalations, st.n, cur.Equal(base))
	}

	s.ReannounceFull([]int{3, 0}, nil, s.RoutingEpoch())
	want, _, err := s.MeasureSubset(cfg.RoundID, nil)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := 0
	for _, blocks := range st.blocks {
		moved := false
		for _, b := range blocks {
			ws, wok := want.SiteOf(b)
			wrt, _ := want.RTTOf(b)
			moved = moved || !sameEntry(base, b, ws, wok, wrt)
		}
		if !moved {
			unchanged++
		}
	}
	cur, er = stitchAll()
	if !cur.Equal(want) {
		t.Error("stitch after a prepend differs from the full sweep")
	}
	if unchanged == 0 || unchanged == st.n || er.WastedEscalations != unchanged {
		t.Errorf("after a prepend: %d strata wasted, want %d of %d", er.WastedEscalations, unchanged, st.n)
	}
}
