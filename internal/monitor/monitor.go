// Package monitor turns the one-shot mapper into a continuous catchment
// monitoring service — the operational loop behind the paper's B-Root
// story (§5.5's month-over-month drift, §6.1's traffic engineering):
// operators do not map once, they *watch* the map, re-running
// Verfploeter to see blocks flip sites and load shift when routing
// changes.
//
// The monitor runs scheduled sweep epochs on the virtual clock against a
// scenario, delta-encodes each epoch against its predecessor (full
// baseline plus per-epoch flip sets, persisted as dataset format v3 with
// time-travel reconstruction), and emits a typed drift event stream —
// block flips, per-site load shifts past a threshold, coverage drops,
// sites going dark — classifying causes where attributable: operator
// prepend changes and withdrawals are known, a site going silent without
// an operator action reads as a blackout, and the rest (tie-break drift)
// is unexplained.
//
// # Adaptive partial re-probing
//
// Probing every hitlist block every epoch wastes almost all of its
// budget on a stable Internet. The monitor instead hashes ASes into
// strata, probes a small deterministic per-AS sample each epoch, and
// escalates to a full re-probe only the strata whose sample diverged
// from the current map. Routing drift in this simulation is session
// (AS)-grained — prepends, withdrawals, and tie-break epochs move whole
// ASes — so a drifted stratum's sample almost surely witnesses the
// drift, and stitching escalated strata's fresh observations over the
// carried map reproduces the always-full-re-probe map byte for byte.
//
// The determinism contract that makes stitching sound: every epoch
// probes with the same RoundID and probe seed, so a block's observation
// (responsiveness, loss coins, alias coins, RTT) is a pure function of
// the current routing assignment — identical whether probed in a
// sample, an escalation, or a full sweep (see verfploeter.Config.Subset).
// Results are byte-identical at any worker count and under any fault
// profile.
package monitor

import (
	"fmt"
	"math"
	"slices"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataset"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/predict"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// Action is an operator-scheduled routing change: before measuring the
// given epoch, the monitor re-announces with the new per-site prepends
// and/or withdrawal mask. nil fields keep the current setting. These are
// *known* causes; world changes the operator did not schedule belong in
// scenario.OnEpoch hooks.
type Action struct {
	Epoch   int
	Prepend []int
	Down    []bool
}

// Config parameterizes a monitoring run.
type Config struct {
	// Epochs is the total number of sweep epochs including the epoch-0
	// baseline (default 4).
	Epochs int
	// Interval is the virtual time between epochs (default 15 min, the
	// paper's cleaning cutoff — back-to-back continuous mapping).
	Interval time.Duration
	// Sample is the per-AS sampled fraction of blocks each epoch, with a
	// floor of one block per AS; <= 0 disables partial re-probing and
	// every epoch sweeps the full hitlist. Default is full mode — callers
	// opt into sampling.
	Sample float64
	// Strata is the number of AS hash-strata for escalation granularity
	// (default 32). Smaller strata escalate less collateral volume but
	// take more bookkeeping.
	Strata int
	// RoundID is the ICMP ident shared by EVERY epoch's sweeps (default
	// 900). A fixed round is the determinism contract: per-block probe
	// noise is frozen, so cross-epoch drift isolates routing changes.
	RoundID uint16
	// LoadLog, when set, weighs load-shift events by the query log
	// instead of raw block counts.
	LoadLog *querylog.Log
	// LoadShift is the per-site load-share delta that raises an event
	// (default 0.03); CoverageDrop the mapped-fraction drop that raises
	// one (default 0.02).
	LoadShift    float64
	CoverageDrop float64
	// GlobalDrift is the fraction of sampled blocks showing drift beyond
	// which the epoch is treated as a global routing event and every
	// stratum escalates (default 0.02). Prepends and tie-break epochs
	// move blocks across many ASes at once — including blocks whose
	// stratum's sample happens to sit still — so partial escalation
	// cannot reproduce the full-re-probe map; a full sweep can, and the
	// event is worth it.
	GlobalDrift float64
	// Predict enables the probe-free fast path (internal/predict) on top
	// of sampling: each epoch the announcement diff between the previous
	// epoch's routing state and the current one is explained from the
	// control plane alone; strata whose predicted flip set is empty and
	// whose blocks all clear PredictThreshold skip even the sampled
	// re-probe, strata touching the predicted flip set escalate straight
	// to a full stratum re-probe, and low-confidence strata keep the
	// normal sample. Requires Sample > 0 (ignored in full mode); falls
	// back to plain sampling whenever the predictor's exactness
	// preconditions fail (e.g. topology generation changed).
	Predict bool
	// PredictThreshold is the per-block confidence cut for
	// predicted-stable skips (default predict.DefaultThreshold).
	PredictThreshold float64
	// PredictRefresh is the canary rotation period (default 8): stratum
	// s is re-witnessed by a real sampled probe at every epoch where
	// (epoch+s) % PredictRefresh == 0, so out-of-band perturbation the
	// control plane cannot see — the predict-miss case — is detected
	// within PredictRefresh epochs and the map self-heals through the
	// ordinary escalation machinery.
	PredictRefresh int
	// Actions is the operator's schedule of routing changes.
	Actions []Action
	// OnEvent, when set, observes each drift event as it is emitted.
	OnEvent func(dataset.Event)
	// Controller, when set, closes the measure→predict→act loop: it runs
	// at the end of every epoch — after measurement and event
	// classification — and may re-announce routing on the scenario (the
	// playbook engine does). A routing change it makes takes effect at the
	// next epoch's sweep and is classified there as CausePlaybook, unless
	// an operator Action at that epoch takes precedence. Epoch 0 calls the
	// controller with the baseline map and no events. The map is the
	// epoch's EpochResult.Map and must not be modified. A nil Controller
	// leaves the monitor's output byte-identical to earlier releases.
	Controller func(epoch int, cur *verfploeter.Catchment, events []dataset.Event)
}

func (cfg Config) fill() Config {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Minute
	}
	if cfg.Strata <= 0 {
		cfg.Strata = 32
	}
	if cfg.RoundID == 0 {
		cfg.RoundID = 900
	}
	if cfg.LoadShift <= 0 {
		cfg.LoadShift = 0.03
	}
	if cfg.CoverageDrop <= 0 {
		cfg.CoverageDrop = 0.02
	}
	if cfg.GlobalDrift <= 0 {
		cfg.GlobalDrift = 0.02
	}
	if cfg.PredictThreshold <= 0 {
		cfg.PredictThreshold = predict.DefaultThreshold
	}
	if cfg.PredictRefresh <= 0 {
		cfg.PredictRefresh = 8
	}
	return cfg
}

// EpochResult is one epoch's outcome.
type EpochResult struct {
	Epoch int
	// Map is the epoch's catchment. Epoch maps are immutable: an epoch
	// that changed no entry returns the carried map itself, so
	// consecutive epochs may share one pointer. Callers must not modify
	// it.
	Map *verfploeter.Catchment
	// Probes actually sent (sample + escalation + retries); Sampled the
	// sample's size (the alias sources measured beside it are not
	// counted); EscalatedStrata how many strata
	// escalated to a full re-probe (0 in full mode); WastedEscalations
	// how many of those re-probes changed no carried entry — escalations
	// a stable epoch should never pay for.
	Probes            int
	Sampled           int
	EscalatedStrata   int
	WastedEscalations int
	// Prediction accounting (zero unless Config.Predict):
	// PredictSkippedStrata counts strata that received no probes at all
	// this epoch (predicted stable at high confidence); PredictHits
	// re-observed changes the predictor called, PredictMisses
	// re-observed changes it declared stable — out-of-band perturbation,
	// recorded as cause predict-miss.
	PredictSkippedStrata int
	PredictHits          int
	PredictMisses        int
	Events               []dataset.Event
}

// Result is a finished monitoring run.
type Result struct {
	Epochs []EpochResult
	Series *dataset.Series
	// Events flattens every epoch's drift events in order.
	Events []dataset.Event
	// TotalProbes sums all epochs; BaselineProbes is epoch 0 alone — the
	// per-epoch cost the sampling mode avoids.
	TotalProbes    int
	BaselineProbes int
	// Prediction totals across all epochs (zero unless Config.Predict).
	PredictHits          int
	PredictMisses        int
	PredictSkippedStrata int
}

// Session is an open-ended monitoring campaign driven one epoch at a
// time — the stepwise form of Run that long-running services (vp-server)
// build on. Each Step advances the virtual clock, runs the epoch hooks
// and operator actions, measures (full or sampled), classifies drift,
// and extends the delta-encoded series; a campaign of N Steps produces
// state byte-identical to Run with Epochs=N, including the persisted
// series file. A Session is not safe for concurrent Steps; callers
// serialize the write side (readers consume the returned EpochResults).
type Session struct {
	s   *scenario.Scenario
	cfg Config
	st  *strata

	res    *Result
	series *dataset.Series

	prev *verfploeter.Catchment
	// prevTally is prev's per-site counts and load shares, kept from the
	// epoch that produced prev, so an epoch that changes nothing
	// recomputes neither.
	prevTally tally
	// prevAsg is the assignment the previous epoch's map was measured
	// under — the predictor's reference routing state. Captured right
	// after each measurement, so Controller changes land in the next
	// epoch's diff.
	prevAsg *bgp.Assignment
	// playbookActed carries a Controller routing change into the NEXT
	// epoch's cause classification: the change is applied now but only
	// measured then.
	playbookActed bool
	epoch         int
	forceFull     bool
}

// NewSession prepares a stepwise monitoring campaign on the scenario.
// The scenario is mutated by Steps (routing changes, clock advance);
// run on a Fork to keep the original pristine. Config.Epochs only
// bounds Run — a Session steps as long as the caller keeps calling.
func NewSession(s *scenario.Scenario, cfg Config) *Session {
	cfg = cfg.fill()
	return &Session{
		s: s, cfg: cfg, st: buildStrata(s, cfg.Strata),
		res: &Result{},
		series: &dataset.Series{
			Meta: dataset.Meta{
				ID: fmt.Sprintf("%s-monitor", s.Name), Scenario: s.Name,
				Sites: s.SiteCodes(), RoundID: cfg.RoundID, Seed: s.Seed,
			},
			Strata: cfg.Strata, SampleRate: math.Max(cfg.Sample, 0),
		},
	}
}

// Epochs returns the number of completed epochs (epoch 0 included).
func (ss *Session) Epochs() int { return ss.epoch }

// Config returns the session's filled configuration.
func (ss *Session) Config() Config { return ss.cfg }

// ForceFull makes the next Step sweep the full hitlist even in sampling
// mode — the operator's "re-probe everything now" trigger. It is a
// no-op in full mode and resets after one Step.
func (ss *Session) ForceFull() { ss.forceFull = true }

// Result returns the campaign so far, series attached. The returned
// value shares state with the session; epochs appended by later Steps
// appear in it.
func (ss *Session) Result() *Result {
	ss.res.Series = ss.series
	return ss.res
}

// Series returns the delta-encoded series accumulated so far.
func (ss *Session) Series() *dataset.Series { return ss.series }

// Step runs the next epoch and returns its result (a copy — safe to
// hand to concurrent readers while the session keeps stepping).
func (ss *Session) Step() (EpochResult, error) {
	s, cfg, e := ss.s, ss.cfg, ss.epoch
	if e > 0 {
		s.Clock.Advance(cfg.Interval)
	}
	// The world moves first (hooks: tie-break drift, blackouts), then
	// the operator acts, then we measure.
	epochSpan := s.Obs.StartSpan("epoch", e)
	s.BeginEpoch(e)
	prependChanged, downChanged := applyActions(s, cfg.Actions, e)

	er := EpochResult{Epoch: e}
	// changed lists, ascending, the blocks whose entry differs from the
	// carried map's; every pass below reads it instead of the map.
	var cur *verfploeter.Catchment
	var changed []ipv4.Block
	full := e == 0 || cfg.Sample <= 0 || ss.forceFull
	ss.forceFull = false
	if full {
		c, stats, err := s.MeasureSubset(cfg.RoundID, nil)
		if err != nil {
			return er, fmt.Errorf("monitor: epoch %d: %w", e, err)
		}
		cur = c
		er.Probes, er.Sampled = stats.Sent, stats.Targets
		if e > 0 {
			changed = verfploeter.ChangedBlocks(ss.prev, cur)
		}
	} else {
		var err error
		if cfg.Predict {
			// Probe-free fast path; cur == nil means the predictor stood
			// down (preconditions failed) and plain sampling takes over.
			cur, changed, err = ss.predictEpoch(&er)
		}
		if err == nil && cur == nil {
			cur, changed, err = sampleEpoch(s, cfg, ss.st, ss.prev, &er)
		}
		if err != nil {
			return er, fmt.Errorf("monitor: epoch %d: %w", e, err)
		}
	}
	er.Map = cur
	ss.prevAsg = s.Asg

	if e == 0 {
		ss.series.Baseline = cur
		ss.series.BaselineProbes = er.Probes
		ss.res.BaselineProbes = er.Probes
		ss.prevTally = tallyOf(cur, cfg.LoadLog)
	} else {
		se := deltaEpoch(e, ss.prev, cur, changed, &er)
		clSpan := s.Obs.StartSpan("classify", e)
		curTally := ss.prevTally
		if len(changed) > 0 {
			curTally = tallyOf(cur, cfg.LoadLog)
		}
		er.Events = classifyEvents(e, s, cfg, ss.prev, cur, changed, ss.prevTally, curTally,
			prependChanged, downChanged, ss.playbookActed, er.PredictMisses > 0)
		ss.prevTally = curTally
		clSpan.End()
		se.Events = er.Events
		ss.series.Epochs = append(ss.series.Epochs, se)
		for _, ev := range er.Events {
			if cfg.OnEvent != nil {
				cfg.OnEvent(ev)
			}
			ss.res.Events = append(ss.res.Events, ev)
		}
	}
	ss.res.TotalProbes += er.Probes
	ss.res.PredictHits += er.PredictHits
	ss.res.PredictMisses += er.PredictMisses
	ss.res.PredictSkippedStrata += er.PredictSkippedStrata
	ss.res.Epochs = append(ss.res.Epochs, er)
	if s.Obs != nil {
		s.Obs.Counter("monitor_epochs", "monitoring epochs completed").Inc()
		s.Obs.Counter("monitor_events", "drift events the monitor classified").AddInt(len(er.Events))
		s.Obs.Counter("monitor_escalated_strata", "strata escalated to a full re-probe").AddInt(er.EscalatedStrata)
		s.Obs.Counter("monitor_wasted_escalations", "escalated strata whose re-probe changed nothing").AddInt(er.WastedEscalations)
		if cfg.Predict {
			s.Obs.Counter("predict_hits", "re-observed changes the predictor called").AddInt(er.PredictHits)
			s.Obs.Counter("predict_misses", "re-observed changes the predictor declared stable").AddInt(er.PredictMisses)
			s.Obs.Counter("predict_skipped_strata", "strata skipped as predicted-stable").AddInt(er.PredictSkippedStrata)
		}
	}
	ss.playbookActed = false
	if cfg.Controller != nil {
		// Snapshot the routing knobs around the controller so its
		// changes — and only its changes — are attributable next epoch.
		prePre, preDown := s.Prepends(), s.DownSites()
		cfg.Controller(e, cur, er.Events)
		ss.playbookActed = !equalInts(s.Prepends(), prePre) ||
			!equalBools(s.DownSites(), preDown)
	}
	epochSpan.End()
	ss.prev = cur
	ss.epoch++
	return er, nil
}

// Run executes a monitoring campaign on the scenario. The scenario is
// mutated (routing changes, clock advance); run on a Fork to keep the
// original pristine.
func Run(s *scenario.Scenario, cfg Config) (*Result, error) {
	ss := NewSession(s, cfg)
	for e := 0; e < ss.cfg.Epochs; e++ {
		if _, err := ss.Step(); err != nil {
			// Partial result, series unattached — exactly the historic
			// mid-campaign failure contract.
			return ss.res, err
		}
	}
	return ss.Result(), nil
}

// sampleEpoch is the adaptive partial re-probe: probe the epoch's
// deterministic per-AS sample, escalate every stratum whose sample
// diverged from the carried map to a full stratum re-probe, and stitch.
// It returns the stitched map and the blocks the stitch rewrote.
func sampleEpoch(s *scenario.Scenario, cfg Config, st *strata,
	prev *verfploeter.Catchment, er *EpochResult) (*verfploeter.Catchment, []ipv4.Block, error) {

	sample := st.sampleSet(er.Epoch, cfg.Sample, s.Seed)
	obs, stats, err := s.MeasureSubset(cfg.RoundID, st.withAliasSources(sample, prev))
	if err != nil {
		return nil, nil, err
	}
	er.Probes, er.Sampled = stats.Sent, sample.Len()

	escalated, drifted := driftedStrata(prev, obs, sample, st)
	if siteAnomaly(prev, obs, sample) ||
		float64(drifted) >= cfg.GlobalDrift*float64(max(1, sample.Len())) {
		// Two signatures of a *global* routing event: a site appearing in
		// or vanishing from the sample (withdrawal, blackout,
		// restoration), or drift across more than GlobalDrift of the
		// sampled blocks (prepend, tie-break epoch). Either moves blocks
		// in strata whose own sample happens to sit still, so partial
		// escalation would strand stale entries; the event costs a full
		// sweep either way.
		escalated = allStrata(st.n)
		s.Obs.Counter("monitor_global_escalations", "epochs escalated to a full re-sweep").Inc()
	}
	er.EscalatedStrata = countTrue(escalated)
	return stitchEscalated(s, cfg, st, prev, escalated, er)
}

// stitchEscalated re-probes every block of the escalated strata (plus
// topology predecessors, for the cross-block alias rule) and stitches
// the fresh observations over the carried map prev; un-escalated
// entries carry over untouched. It returns the epoch's map and the
// ascending list of blocks it rewrote. prev itself is never modified:
// it is copied on the first rewrite, so an epoch that changes nothing
// returns prev and copies nothing. Escalated strata whose fresh
// observations equal their carried entries are counted in
// er.WastedEscalations.
func stitchEscalated(s *scenario.Scenario, cfg Config, st *strata,
	prev *verfploeter.Catchment, escalated []bool, er *EpochResult) (*verfploeter.Catchment, []ipv4.Block, error) {

	if countTrue(escalated) == 0 {
		return prev, nil, nil
	}
	full, fstats, err := s.MeasureSubset(cfg.RoundID, st.escalationSet(escalated))
	if err != nil {
		return nil, nil, err
	}
	er.Probes += fstats.Sent
	// Stitch: escalated strata take the fresh observation wholesale
	// (including blocks that went silent), the rest carries over. The
	// predecessors' own observations are not stitched.
	cur := prev
	var changed []ipv4.Block
	for stratum, esc := range escalated {
		if !esc {
			continue
		}
		n := len(changed)
		for _, b := range st.blocks[stratum] {
			fs, fok := full.SiteOf(b)
			frt, _ := full.RTTOf(b)
			if sameEntry(prev, b, fs, fok, frt) {
				continue
			}
			if cur == prev {
				cur = prev.Clone()
			}
			changed = append(changed, b)
			if fok {
				cur.Reassign(b, fs, frt)
			} else {
				cur.Delete(b)
			}
		}
		if len(changed) == n {
			er.WastedEscalations++
		}
	}
	slices.Sort(changed)
	return cur, changed, nil
}

// sameEntry reports whether c's entry for b is exactly (site, rtt), or
// absent when !ok.
func sameEntry(c *verfploeter.Catchment, b ipv4.Block, site int, ok bool, rtt time.Duration) bool {
	cs, cok := c.SiteOf(b)
	if cok != ok || cs != site {
		return false
	}
	crt, _ := c.RTTOf(b)
	return crt == rtt
}

// applyActions runs the operator schedule for epoch e, reporting which
// knobs actually changed (for cause classification).
func applyActions(s *scenario.Scenario, actions []Action, e int) (prependChanged, downChanged bool) {
	for _, a := range actions {
		if a.Epoch != e {
			continue
		}
		curPre, curDown := s.Prepends(), s.DownSites()
		newPre, newDown := curPre, curDown
		if a.Prepend != nil {
			newPre = a.Prepend
		}
		if a.Down != nil {
			newDown = a.Down
		}
		prependChanged = prependChanged || !equalInts(newPre, curPre)
		downChanged = downChanged || !equalBools(newDown, curDown)
		s.ReannounceFull(newPre, newDown, s.RoutingEpoch())
	}
	return prependChanged, downChanged
}

// deltaEpoch encodes cur against prev from the epoch's ascending change
// list: changed/added/removed blocks in sorted order for deterministic
// series files.
func deltaEpoch(e int, prev, cur *verfploeter.Catchment, changed []ipv4.Block, er *EpochResult) dataset.SeriesEpoch {
	se := dataset.SeriesEpoch{
		Epoch: e, Probes: er.Probes,
		SampledTargets: er.Sampled, EscalatedStrata: er.EscalatedStrata,
	}
	for _, b := range changed {
		site, ok := cur.SiteOf(b)
		if !ok {
			se.Removed = append(se.Removed, b)
			continue
		}
		rtt, _ := cur.RTTOf(b)
		d := dataset.Delta{Block: b, Site: int16(site), RTT: rtt}
		if _, had := prev.SiteOf(b); had {
			se.Changed = append(se.Changed, d)
		} else {
			se.Added = append(se.Added, d)
		}
	}
	return se
}

// tally is one map's per-site block counts and load shares.
type tally struct {
	counts []int
	shares []float64
}

// tallyOf counts c's blocks per site and computes its load shares:
// query-weighted when a log is supplied, block-count shares otherwise.
func tallyOf(c *verfploeter.Catchment, log *querylog.Log) tally {
	t := tally{counts: c.Counts(), shares: make([]float64, c.NSite)}
	if log != nil {
		est := loadmodel.Predict(c, log, loadmodel.ByQueries)
		for site := range t.shares {
			t.shares[site] = est.Fraction(site)
		}
	} else if n := c.Len(); n > 0 {
		for site := range t.shares {
			t.shares[site] = float64(t.counts[site]) / float64(n)
		}
	}
	return t
}

// classifyEvents turns the prev→cur transition into the epoch's typed
// drift events, all tagged with the epoch's best-attributed cause. It
// reads the transition from the ascending change list and the two maps'
// tallies; it makes no pass over either map.
func classifyEvents(e int, s *scenario.Scenario, cfg Config,
	prev, cur *verfploeter.Catchment, changed []ipv4.Block, prevTally, curTally tally,
	prependChanged, downChanged, playbook, predictMiss bool) []dataset.Event {

	prevCounts, curCounts := prevTally.counts, curTally.counts
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
		// The playbook engine re-announced at the end of the previous
		// epoch; this epoch's drift is its doing, whatever knob it turned.
		cause = dataset.CausePlaybook
	case len(darkened) > 0:
		// The operator did nothing, yet a site lost every block: that is
		// what a data-plane blackout (or upstream failure) looks like
		// from the prober's seat.
		cause = dataset.CauseBlackout
	case predictMiss:
		// The predictor declared this epoch stable and the escalation
		// machinery observed drift anyway: out-of-band perturbation the
		// control plane could not see. Sharper than "unexplained" — it
		// carries the predictor's testimony that routing did not move.
		cause = dataset.CausePredictMiss
	}

	// Only a changed block can have flipped or gone silent.
	flipped, toNR := 0, 0
	for _, b := range changed {
		ps, ok := prev.SiteOf(b)
		if !ok {
			continue
		}
		if cs, ok := cur.SiteOf(b); !ok {
			toNR++
		} else if cs != ps {
			flipped++
		}
	}

	var events []dataset.Event
	if flipped > 0 {
		events = append(events, dataset.Event{
			Epoch: e, Type: dataset.EventFlips, Cause: cause, Site: -1,
			Blocks:    flipped,
			Magnitude: float64(flipped) / float64(max(1, prev.Len())),
		})
	}
	prevShare, curShare := prevTally.shares, curTally.shares
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
				Blocks: toNR, Magnitude: drop,
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

// --- strata ----------------------------------------------------------

// strata partitions the hitlist's blocks into hash-strata of whole
// ASes. Routing drift here is session-grained — a prepend, withdrawal,
// or tie-break epoch moves entire AS sessions — so keeping each AS
// within one stratum means a drifted AS's sampled block escalates
// exactly the stratum holding the rest of that AS.
type strata struct {
	n int
	// byAS[asIdx] = stratum; blocks[stratum] = the member blocks, in
	// topology (sorted-block) order; perAS[asIdx] = that AS's blocks,
	// for per-AS sampling. top resolves a block's stratum and topology
	// predecessor through its dense id.
	byAS   []int
	blocks [][]ipv4.Block
	perAS  [][]ipv4.Block
	top    *topology.Topology
}

func buildStrata(s *scenario.Scenario, n int) *strata {
	st := &strata{
		n:      n,
		byAS:   make([]int, len(s.Top.ASes)),
		blocks: make([][]ipv4.Block, n),
		perAS:  make([][]ipv4.Block, len(s.Top.ASes)),
		top:    s.Top,
	}
	for asIdx := range s.Top.ASes {
		st.byAS[asIdx] = int(mix64(s.Seed^0x5742a7a7, uint64(asIdx)) % uint64(n))
	}
	for i := range s.Top.Blocks {
		bi := &s.Top.Blocks[i]
		stratum := st.byAS[bi.ASIdx]
		st.blocks[stratum] = append(st.blocks[stratum], bi.Block)
		st.perAS[bi.ASIdx] = append(st.perAS[bi.ASIdx], bi.Block)
	}
	return st
}

// stratumOf returns the stratum holding block b, if b is a topology
// block.
func (st *strata) stratumOf(b ipv4.Block) (int, bool) {
	i := st.top.BlockIndex(b)
	if i < 0 {
		return 0, false
	}
	return st.byAS[st.top.Blocks[i].ASIdx], true
}

// predecessor returns b's topology predecessor — the only block whose
// probe can alias a reply into b (dataplane's cross-alias rule).
func (st *strata) predecessor(b ipv4.Block) (ipv4.Block, bool) {
	if i := st.top.BlockIndex(b); i > 0 {
		return st.top.Blocks[i-1].Block, true
	}
	return 0, false
}

// escalationSet returns every block of the escalated strata plus each
// one's topology predecessor, so the partial sweep observes each
// escalated block exactly as a full sweep would.
func (st *strata) escalationSet(escalated []bool) *ipv4.BlockSet {
	n := 0
	for stratum, esc := range escalated {
		if esc {
			n += len(st.blocks[stratum])
		}
	}
	out := ipv4.NewBlockSet(n + n/4)
	for stratum, esc := range escalated {
		if !esc {
			continue
		}
		for _, b := range st.blocks[stratum] {
			out.Add(b)
			if p, ok := st.predecessor(b); ok {
				out.Add(p)
			}
		}
	}
	return out
}

// withAliasSources returns the set a sample is measured with: the
// sample plus the predecessor of every sampled block whose carried
// entry has a site but no RTT. Only a sequence-matched echo carries an
// RTT (verfploeter's fold), so such an entry was won by a cross-block
// alias, which only the predecessor's probe produces; without that
// probe the block would read as gone and escalate its stratum for
// nothing. Blocks that carried an echo, or nothing, observe the same
// with or without their predecessor, so they add no probes. A carried
// map with no RTTs at all gets every mapped block's predecessor — more
// probes, same verdicts. The sample itself is not modified.
func (st *strata) withAliasSources(sample *ipv4.BlockSet, prev *verfploeter.Catchment) *ipv4.BlockSet {
	var extra []ipv4.Block
	sample.Range(func(b ipv4.Block) bool {
		if _, mapped := prev.SiteOf(b); mapped {
			if _, echo := prev.RTTOf(b); !echo {
				if p, ok := st.predecessor(b); ok {
					extra = append(extra, p)
				}
			}
		}
		return true
	})
	if len(extra) == 0 {
		return sample
	}
	out := ipv4.NewBlockSet(sample.Len() + len(extra))
	out.Union(sample)
	for _, p := range extra {
		out.Add(p)
	}
	return out
}

// ranked is one block with its per-epoch sample rank: ordered by hash,
// ties broken by block.
type ranked struct {
	h uint64
	b ipv4.Block
}

func (r ranked) less(o ranked) bool {
	return r.h < o.h || r.h == o.h && r.b < o.b
}

// sampleSet picks each AS's deterministic sample for the epoch:
// max(1, ceil(rate·|blocks|)) blocks, ranked by a per-epoch hash so the
// sample rotates across epochs — a flip missed this epoch (because a
// multi-PoP AS drifted only partially) meets a different sample next
// epoch. Only the set of each AS's k lowest ranks matters, so it is
// selected in place rather than sorted.
func (st *strata) sampleSet(epoch int, rate float64, seed uint64) *ipv4.BlockSet {
	quota := func(blocks []ipv4.Block) int {
		return min(len(blocks), max(1, int(math.Ceil(rate*float64(len(blocks))))))
	}
	n := 0
	for _, blocks := range st.perAS {
		if len(blocks) > 0 {
			n += quota(blocks)
		}
	}
	out := ipv4.NewBlockSet(n)
	key := seed ^ uint64(epoch)*0x9e3779b97f4a7c15
	var scratch []ranked
	for _, blocks := range st.perAS {
		if len(blocks) == 0 {
			continue
		}
		k := quota(blocks)
		if k == len(blocks) {
			for _, b := range blocks {
				out.Add(b)
			}
			continue
		}
		scratch = scratch[:0]
		for _, b := range blocks {
			scratch = append(scratch, ranked{mix64(key, uint64(b)), b})
		}
		selectSmallest(scratch, k)
		for _, r := range scratch[:k] {
			out.Add(r.b)
		}
	}
	return out
}

// selectSmallest reorders r so that r[:k] holds its k smallest elements
// (in no particular order), 0 < k <= len(r): Hoare quickselect on the
// middle element. Ranks are hashes, so the middle pivot is as good as a
// random one. A typed slices.SortFunc on the same key makes an
// internet-tier monitor epoch ~60 % slower (2-vCPU Xeon VM).
func selectSmallest(r []ranked, k int) {
	t := k - 1
	lo, hi := 0, len(r)-1
	for lo < hi {
		p := r[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for r[i].less(p) {
				i++
			}
			for p.less(r[j]) {
				j--
			}
			if i <= j {
				r[i], r[j] = r[j], r[i]
				i++
				j--
			}
		}
		// r[lo..j] <= p <= r[i..hi], and anything between equals p.
		switch {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default:
			return
		}
	}
}

// driftedStrata compares the sampled observation against the carried
// map: any divergence — presence, site, or RTT — marks the block's
// stratum for escalation. RTT participates because a withdrawn origin
// leg changes every RTT without flipping sites; byte-identity to full
// mode requires catching that too. The second return value counts the
// drifted sampled blocks, for the global-drift trigger.
func driftedStrata(prev, obs *verfploeter.Catchment, sample *ipv4.BlockSet, st *strata) ([]bool, int) {
	esc := make([]bool, st.n)
	n := 0
	sample.Range(func(b ipv4.Block) bool {
		os, ook := obs.SiteOf(b)
		ort, _ := obs.RTTOf(b)
		if !sameEntry(prev, b, os, ook, ort) {
			n++
			if stratum, ok := st.stratumOf(b); ok {
				esc[stratum] = true
			}
		}
		return true
	})
	return esc, n
}

// siteAnomaly reports whether the set of sites seen among the sampled
// observations differs from the set among the same blocks' carried
// entries — the signature of a site going dark or coming back.
func siteAnomaly(prev, obs *verfploeter.Catchment, sample *ipv4.BlockSet) bool {
	prevSites := make([]bool, prev.NSite)
	obsSites := make([]bool, obs.NSite)
	sample.Range(func(b ipv4.Block) bool {
		if s, ok := prev.SiteOf(b); ok {
			prevSites[s] = true
		}
		if s, ok := obs.SiteOf(b); ok {
			obsSites[s] = true
		}
		return true
	})
	return !equalBools(prevSites, obsSites)
}

// allStrata marks every stratum for escalation.
func allStrata(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func countTrue(v []bool) int {
	n := 0
	for _, t := range v {
		if t {
			n++
		}
	}
	return n
}

// --- small helpers ----------------------------------------------------

// mix64 is a splitmix64-style hash for strata and sample ranking.
func mix64(a, b uint64) uint64 {
	x := a ^ b*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
