package monitor

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"verfploeter/internal/dataset"
	"verfploeter/internal/faults"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/loadgen"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/playbook"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// refDeltaEpoch is the full-scan delta encoder the change list replaced:
// it walks both maps.
func refDeltaEpoch(e int, prev, cur *verfploeter.Catchment, er *EpochResult) dataset.SeriesEpoch {
	se := dataset.SeriesEpoch{
		Epoch: e, Probes: er.Probes,
		SampledTargets: er.Sampled, EscalatedStrata: er.EscalatedStrata,
	}
	for _, b := range cur.Blocks() {
		site, _ := cur.SiteOf(b)
		rtt, _ := cur.RTTOf(b)
		d := dataset.Delta{Block: b, Site: int16(site), RTT: rtt}
		if ps, ok := prev.SiteOf(b); !ok {
			se.Added = append(se.Added, d)
		} else if pr, _ := prev.RTTOf(b); ps != site || pr != rtt {
			se.Changed = append(se.Changed, d)
		}
	}
	for _, b := range prev.Blocks() {
		if _, ok := cur.SiteOf(b); !ok {
			se.Removed = append(se.Removed, b)
		}
	}
	return se
}

// refShares recomputes a map's load shares from scratch.
func refShares(c *verfploeter.Catchment, log *querylog.Log) []float64 {
	out := make([]float64, c.NSite)
	if log != nil {
		est := loadmodel.Predict(c, log, loadmodel.ByQueries)
		for site := range out {
			out[site] = est.Fraction(site)
		}
		return out
	}
	for site := range out {
		out[site] = c.Fraction(site)
	}
	return out
}

// refClassifyEvents is the full-scan classifier the change list and the
// carried tallies replaced: two Counts, a Diff and two share
// computations over the whole maps.
func refClassifyEvents(e int, s *scenario.Scenario, cfg Config,
	prev, cur *verfploeter.Catchment, prependChanged, downChanged, playbook, predictMiss bool) []dataset.Event {

	prevCounts, curCounts := prev.Counts(), cur.Counts()
	var darkened, restored []int
	for site := range prevCounts {
		switch {
		case prevCounts[site] > 0 && curCounts[site] == 0:
			darkened = append(darkened, site)
		case prevCounts[site] == 0 && curCounts[site] > 0:
			restored = append(restored, site)
		}
	}
	cause := dataset.CauseUnexplained
	switch {
	case downChanged:
		cause = dataset.CauseWithdraw
	case prependChanged:
		cause = dataset.CausePrepend
	case playbook:
		cause = dataset.CausePlaybook
	case len(darkened) > 0:
		cause = dataset.CauseBlackout
	case predictMiss:
		cause = dataset.CausePredictMiss
	}
	var events []dataset.Event
	d := verfploeter.Diff(prev, cur)
	if d.Flipped > 0 {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventFlips, Cause: cause, Site: -1,
			Blocks:    d.Flipped,
			Magnitude: float64(d.Flipped) / float64(max(1, prev.Len())),
		})
	}
	prevShare, curShare := refShares(prev, cfg.LoadLog), refShares(cur, cfg.LoadLog)
	for site := range curShare {
		delta := curShare[site] - prevShare[site]
		if math.Abs(delta) >= cfg.LoadShift {
			events = append(events, dataset.Event{
				Epoch: e, Type: dataset.EventLoadShift, Cause: cause, Site: site,
				Blocks:    absInt(curCounts[site] - prevCounts[site]),
				Magnitude: delta,
			})
		}
	}
	if hl := s.Hitlist.Len(); hl > 0 {
		drop := float64(prev.Len()-cur.Len()) / float64(hl)
		if drop >= cfg.CoverageDrop {
			events = append(events, dataset.Event{
				Epoch: e, Type: dataset.EventCoverageDrop, Cause: cause, Site: -1,
				Blocks: d.ToNR, Magnitude: drop,
			})
		}
	}
	for _, site := range darkened {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventSiteDark, Cause: cause, Site: site,
			Blocks: prevCounts[site], Magnitude: prevShare[site],
		})
	}
	for _, site := range restored {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventSiteRestored, Cause: cause, Site: site,
			Blocks: curCounts[site], Magnitude: curShare[site],
		})
	}
	return events
}

// fingerprint hashes every entry of c, RTTs included.
func fingerprint(c *verfploeter.Catchment) uint64 {
	h := fnv.New64a()
	c.Range(func(b ipv4.Block, site int) bool {
		rtt, _ := c.RTTOf(b)
		fmt.Fprintf(h, "%d:%d:%d;", b, site, rtt)
		return true
	})
	return h.Sum64()
}

// campaign is one monitoring run checked against the full-scan
// references epoch by epoch.
type campaign struct {
	name      string
	s         *scenario.Scenario
	cfg       Config
	forceFull int // epoch before which ForceFull is called; 0 = never
}

// campaignStats is what a checked campaign saw, so the matrix can show that it
// exercised what it claims to.
type campaignStats struct {
	events, changedEpochs, sharedMaps int
	added, removed                    int
	causes                            map[dataset.Cause]bool
}

// checkCampaign steps c's session and asserts that every epoch's series
// frame and event list equal the full-scan references, and that no
// epoch's map changes after it was produced. Operator flags are derived
// from the schedule: the worlds here change no prepend in a hook and
// schedule no Down action.
func checkCampaign(t *testing.T, c campaign) campaignStats {
	t.Helper()
	ss := NewSession(c.s, c.cfg)
	cfg := ss.Config()
	st := campaignStats{causes: map[dataset.Cause]bool{}}
	var prints []uint64
	for e := 0; e < cfg.Epochs; e++ {
		if c.forceFull > 0 && e == c.forceFull {
			ss.ForceFull()
		}
		prePrepend := c.s.Prepends()
		prependChanged := false
		for _, a := range cfg.Actions {
			if a.Epoch == e && a.Prepend != nil && !equalInts(a.Prepend, prePrepend) {
				prependChanged = true
			}
		}
		playbookActed := ss.playbookActed
		er, err := ss.Step()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prints = append(prints, fingerprint(er.Map))
		if e == 0 {
			continue
		}
		prev := ss.Result().Epochs[e-1].Map
		want := refDeltaEpoch(e, prev, er.Map, &er)
		want.Events = refClassifyEvents(e, c.s, cfg, prev, er.Map,
			prependChanged, false, playbookActed, er.PredictMisses > 0)
		got := ss.Series().Epochs[e-1]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: epoch %d: frame differs from the full-scan reference\ngot  %d changed %d added %d removed, events:\n%swant %d changed %d added %d removed, events:\n%s",
				c.name, e, len(got.Changed), len(got.Added), len(got.Removed), eventString(got.Events),
				len(want.Changed), len(want.Added), len(want.Removed), eventString(want.Events))
		}
		if !reflect.DeepEqual(er.Events, want.Events) {
			t.Errorf("%s: epoch %d: EpochResult.Events differ from the reference", c.name, e)
		}
		st.events += len(er.Events)
		for _, ev := range er.Events {
			st.causes[ev.Cause] = true
		}
		if len(want.Changed)+len(want.Added)+len(want.Removed) > 0 {
			st.changedEpochs++
		}
		st.added += len(want.Added)
		st.removed += len(want.Removed)
		if er.Map == prev {
			st.sharedMaps++
		}
	}
	for e, er := range ss.Result().Epochs {
		if fingerprint(er.Map) != prints[e] {
			t.Errorf("%s: epoch %d's map changed after its epoch", c.name, e)
		}
	}
	return st
}

// TestEpochMatchesFullScan: the change-list frame, events and carried
// tallies equal the full-scan references on every epoch of the drift
// schedule, in full, sampled and predicted mode, with and without
// faults, at two worker counts, with block-count and query-weighted
// shares; plus a mid-campaign ForceFull and a playbook-driven campaign.
func TestEpochMatchesFullScan(t *testing.T) {
	modes := []struct {
		name    string
		sample  float64
		predict bool
	}{{"full", 0, false}, {"sample", 0.25, false}, {"predict", 0.125, true}}
	for _, mode := range modes {
		for _, faulty := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, withLog := range []bool{false, true} {
					s, actions := driftWorld(t, 7)
					if faulty {
						p := faults.Moderate()
						p.Seed = 7
						s.SetFaults(p)
						s.Retries = 2
					}
					s.Workers = workers
					cfg := Config{Epochs: 7, Sample: mode.sample, Predict: mode.predict, Actions: actions}
					if withLog {
						cfg.LoadLog = s.RootLog()
					}
					name := fmt.Sprintf("%s/faults=%v/workers=%d/log=%v", mode.name, faulty, workers, withLog)
					st := checkCampaign(t, campaign{name: name, s: s, cfg: cfg})
					if st.events == 0 || st.changedEpochs == 0 {
						t.Errorf("%s: %d events over %d changed epochs; the schedule tests nothing",
							name, st.events, st.changedEpochs)
					}
					if mode.sample > 0 && st.sharedMaps == 0 {
						t.Errorf("%s: no stable epoch returned the carried map", name)
					}
				}
			}
		}
	}

	t.Run("force-full", func(t *testing.T) {
		s, actions := driftWorld(t, 7)
		st := checkCampaign(t, campaign{name: "force-full", s: s,
			cfg: Config{Epochs: 7, Sample: 0.25, Actions: actions}, forceFull: 4})
		if st.sharedMaps == 0 {
			t.Error("no sampled epoch returned the carried map")
		}
	})

	// The drift schedule moves blocks between sites but never in or out
	// of the map. Responsiveness churn does: advancing the data plane's
	// round at epochs 2 and 4 silences some blocks and wakes others.
	t.Run("churn", func(t *testing.T) {
		for _, sample := range []float64{0, 0.25} {
			s, actions := driftWorld(t, 7)
			s.OnEpoch(func(sc *scenario.Scenario, e int) {
				if e == 2 || e == 4 {
					sc.Net.SetRound(uint32(e))
				}
			})
			st := checkCampaign(t, campaign{name: fmt.Sprintf("churn/sample=%v", sample), s: s,
				cfg: Config{Epochs: 7, Sample: sample, Actions: actions}})
			if st.added == 0 || st.removed == 0 {
				t.Errorf("sample=%v: %d added and %d removed entries; churn should give both",
					sample, st.added, st.removed)
			}
		}
	})

	t.Run("playbook", func(t *testing.T) {
		for _, sample := range []float64{0, 0.25} {
			s := scenario.BRoot(topology.SizeTiny, 7)
			normal := s.RootLog()
			mix, err := loadgen.ParseAttackMix("shape=concentrated,volume=2x,ases=12,seed=3")
			if err != nil {
				t.Fatal(err)
			}
			total := normal.TotalQPD()
			eng := playbook.NewEngine(s, playbook.EngineConfig{Config: playbook.Config{
				Target: 0, Capacity: []float64{2.0 * total, 4.0 * total},
				Normal: normal, Attack: mix.Synthesize(s.Top, total),
			}})
			st := checkCampaign(t, campaign{name: fmt.Sprintf("playbook/sample=%v", sample), s: s,
				cfg: Config{Epochs: 5, Sample: sample, LoadLog: normal, Controller: eng.Controller()}})
			if !st.causes[dataset.CausePlaybook] {
				t.Errorf("sample=%v: no event attributed to the playbook (engine decisions %v)", sample, eng.Decisions)
			}
		}
	})
}

// TestStableEpochSharesCarriedMap: copy on write. A sampled or
// predicted epoch that rewrites nothing returns the carried map itself,
// so a stable campaign holds one map however many epochs it runs; on
// the drift schedule an epoch returns a fresh map exactly when its
// frame is non-empty, and no epoch's map changes after its epoch.
func TestStableEpochSharesCarriedMap(t *testing.T) {
	for _, predict := range []bool{false, true} {
		res, err := Run(scenario.BRoot(topology.SizeTiny, 3), Config{Epochs: 5, Sample: 0.125, Predict: predict})
		if err != nil {
			t.Fatal(err)
		}
		for _, er := range res.Epochs[1:] {
			if er.Map != res.Epochs[0].Map {
				t.Errorf("predict=%v: stable epoch %d returned a new map", predict, er.Epoch)
			}
		}
	}

	// An escalation whose re-probe matches every carried entry copies
	// nothing either.
	s := scenario.BRoot(topology.SizeTiny, 7)
	cfg := Config{}.fill()
	st := buildStrata(s, cfg.Strata)
	base, _, err := s.MeasureSubset(cfg.RoundID, nil)
	if err != nil {
		t.Fatal(err)
	}
	var er EpochResult
	cur, changed, err := stitchEscalated(s, cfg, st, base, allStrata(st.n), &er)
	if err != nil {
		t.Fatal(err)
	}
	if cur != base || changed != nil || er.WastedEscalations != st.n {
		t.Errorf("wasted escalation: same map %v, %d changed, %d of %d strata wasted",
			cur == base, len(changed), er.WastedEscalations, st.n)
	}

	s, actions := driftWorld(t, 7)
	ss := NewSession(s, Config{Sample: 0.25, Actions: actions})
	var prints []uint64
	shared, fresh := 0, 0
	for e := 0; e < 7; e++ {
		er, err := ss.Step()
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fingerprint(er.Map))
		if e == 0 {
			continue
		}
		se := ss.Series().Epochs[e-1]
		empty := len(se.Changed)+len(se.Added)+len(se.Removed) == 0
		if er.Map == ss.Result().Epochs[e-1].Map {
			shared++
			if !empty {
				t.Errorf("epoch %d changed %d entries but returned the carried map",
					e, len(se.Changed)+len(se.Added)+len(se.Removed))
			}
		} else {
			fresh++
			if empty {
				t.Errorf("epoch %d changed nothing but returned a new map", e)
			}
		}
	}
	if shared == 0 || fresh == 0 {
		t.Errorf("%d shared and %d fresh maps; the schedule should give both", shared, fresh)
	}
	for e, er := range ss.Result().Epochs {
		if fingerprint(er.Map) != prints[e] {
			t.Errorf("epoch %d's map changed after its epoch", e)
		}
	}
	if fingerprint(ss.Series().Baseline) != prints[0] {
		t.Error("the series baseline changed after epoch 0")
	}
}
