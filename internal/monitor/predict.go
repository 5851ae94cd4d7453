package monitor

// Fusion of the probe-free predictor (internal/predict) into the
// sampling epoch loop — DESIGN.md §15. Each predicted epoch partitions
// the strata three ways from the control-plane diff between the
// routing state the previous map was measured under and the one now
// deployed:
//
//   - strata touching the predicted flip set (closed under the
//     cross-block alias rule) escalate straight to a full stratum
//     re-probe — the diff says their observations changed, so the
//     sampled detour would only discover what is already known;
//   - strata with any block below the confidence cut, plus the canary
//     rotation's strata for this epoch, keep the ordinary sample and
//     the ordinary drift-escalation machinery;
//   - everything else skips probing entirely (predicted-stable): the
//     exactness contract says their blocks re-observe byte-identically,
//     so the carried map entries already ARE this epoch's observations.
//
// Mispredictions — drift observed where the predictor said stable —
// can only come from out-of-band perturbation (dataplane faults,
// assignment swaps behind the scenario's back). They surface through
// the same sampled-drift escalation as plain sampling mode, are
// counted as PredictMisses, and classify the epoch's events as cause
// predict-miss; the stitch self-heals the map. The canary rotation
// bounds detection latency to Config.PredictRefresh epochs.

import (
	"verfploeter/internal/ipv4"
	"verfploeter/internal/predict"
	"verfploeter/internal/verfploeter"
)

// predictEpoch runs one predicted epoch and returns the stitched map
// and the blocks the stitch rewrote. A nil catchment with a nil error
// means the predictor stood down (exactness preconditions failed —
// e.g. no reference assignment yet, or the topology mutated) and the
// caller must fall back to plain sampling.
func (ss *Session) predictEpoch(er *EpochResult) (*verfploeter.Catchment, []ipv4.Block, error) {
	s, cfg, st, prev := ss.s, ss.cfg, ss.st, ss.prev
	pr := predict.Diff(s.Top, ss.prevAsg, s.Asg, predict.Config{Threshold: cfg.PredictThreshold})
	if !pr.Exact {
		return nil, nil, nil
	}

	// Strata touching the predicted flip set escalate outright.
	affected := make([]bool, st.n)
	pr.Affected.Range(func(b ipv4.Block) bool {
		if stratum, ok := st.stratumOf(b); ok {
			affected[stratum] = true
		}
		return true
	})

	// Canary rotation: these strata keep their full rotating sample this
	// epoch regardless of confidence, bounding misprediction-detection
	// latency to PredictRefresh epochs.
	canary := make([]bool, st.n)
	for stratum := range canary {
		canary[stratum] = (er.Epoch+stratum)%cfg.PredictRefresh == 0
	}

	// The probe set is block-granular: of the epoch's ordinary rotating
	// sample, keep canary-stratum blocks and individually low-confidence
	// blocks; drop blocks of escalating strata (their full re-probe
	// subsumes the sample). High-confidence blocks elsewhere are covered
	// by the exactness contract and receive no probes at all.
	sample := st.sampleSet(er.Epoch, cfg.Sample, s.Seed)
	probed := ipv4.NewBlockSet(sample.Len())
	probedStrata := make([]bool, st.n)
	sample.Range(func(b ipv4.Block) bool {
		i := st.top.BlockIndex(b)
		stratum := st.byAS[st.top.Blocks[i].ASIdx]
		if !affected[stratum] && (canary[stratum] || pr.LowConfidence(i)) {
			probed.Add(b)
			probedStrata[stratum] = true
		}
		return true
	})
	var obs *verfploeter.Catchment
	if probed.Len() > 0 {
		o, stats, err := s.MeasureSubset(cfg.RoundID, st.withAliasSources(probed, prev))
		if err != nil {
			return nil, nil, err
		}
		obs = o
		er.Probes, er.Sampled = stats.Sent, probed.Len()
	}

	// Escalation: predicted-affected strata unconditionally; sampled
	// strata by the same observed-drift rule as plain sampling; the
	// global triggers (site anomaly, drift fraction) still force a full
	// re-sweep — they are the self-heal path for large out-of-band
	// events.
	escalated := affected // affected is not read again; extend it in place
	if obs != nil {
		esc, drifted := driftedStrata(prev, obs, probed, st)
		for stratum, d := range esc {
			if d {
				escalated[stratum] = true
			}
		}
		if siteAnomaly(prev, obs, probed) ||
			float64(drifted) >= cfg.GlobalDrift*float64(max(1, probed.Len())) {
			escalated = allStrata(st.n)
			s.Obs.Counter("monitor_global_escalations", "epochs escalated to a full re-sweep").Inc()
		}
	}
	er.EscalatedStrata = countTrue(escalated)
	for stratum := range escalated {
		if !escalated[stratum] && !probedStrata[stratum] {
			er.PredictSkippedStrata++
		}
	}

	cur, changed, err := stitchEscalated(s, cfg, st, prev, escalated, er)
	if err != nil {
		return nil, nil, err
	}

	// Score the prediction against everything actually re-observed:
	// a changed re-observation inside the predicted affected set is a
	// hit, outside it a miss. Skipped strata are by construction
	// unchanged in cur, so the stitch's change list and the probed
	// blocks cover every prev→cur difference.
	score := func(b ipv4.Block) {
		if pr.Affected.Contains(b) {
			er.PredictHits++
		} else {
			er.PredictMisses++
		}
	}
	for _, b := range changed {
		score(b)
	}
	// Sampled blocks outside escalated strata were carried in cur, so
	// their fresh witness is obs. (driftedStrata escalates every drifted
	// sampled block's stratum, so these are normally the confirmed-stable
	// ones — but scoring against cur would bake that assumption in.)
	probed.Range(func(b ipv4.Block) bool {
		if stratum, _ := st.stratumOf(b); !escalated[stratum] {
			fs, fok := obs.SiteOf(b)
			frt, _ := obs.RTTOf(b)
			if !sameEntry(prev, b, fs, fok, frt) {
				score(b)
			}
		}
		return true
	})
	return cur, changed, nil
}
