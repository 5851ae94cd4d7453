package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataset"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/predict"
	"verfploeter/internal/scenario"
	"verfploeter/internal/verfploeter"
)

type monitorOut struct {
	checks
	stableS   []float64 // wall per epoch without an action
	eventMS   []float64 // wall per epoch with one
	probes    []float64 // EpochResult.Probes, stable epochs
	sampled   []float64
	escalated []float64
	skipped   []float64
	misses    int
	totalS    float64 // every step plus the series file

	seriesWriteMS float64
	seriesBytes   int64
	seriesAtMS    float64
	fingerprint   uint64 // final stitched map

	// The assignment and map on either side of the first action epoch:
	// inputs for the stage costs the traced run computes afterwards.
	asgBefore, asgAfter *bgp.Assignment
	mapBefore, mapAfter *verfploeter.Catchment
}

// runMonitor steps the session through n more epochs (the baseline was
// measured in setup) and adds them to out.
func runMonitor(r *rig, out *monitorOut, n, actionEvery int, tr *tracer) error {
	scn, ss := r.monScn, r.mon
	start := time.Now()
	for i := 0; i < n; i++ {
		epoch := ss.Epochs()
		prevMap := ss.Result().Epochs[epoch-1].Map
		isEvent := epoch%actionEvery == 0
		asg0 := scn.Asg
		sp := tr.begin("monitor.Step", epoch, -1)
		t0 := time.Now()
		er, err := ss.Step()
		dt := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		out.attempted++ // the step itself
		if isEvent {
			out.eventMS = append(out.eventMS, ms(dt))
			prepend := len(er.Events) > 0
			for _, ev := range er.Events {
				prepend = prepend && ev.Cause == dataset.CausePrepend
			}
			out.ok(prepend, "epoch %d: action epoch emitted %d events, want all with cause prepend", epoch, len(er.Events))
			if out.asgBefore == nil {
				out.asgBefore, out.asgAfter = asg0, scn.Asg
				out.mapBefore, out.mapAfter = prevMap, er.Map
			}
		} else {
			out.stableS = append(out.stableS, dt.Seconds())
			out.probes = append(out.probes, float64(er.Probes))
			out.sampled = append(out.sampled, float64(er.Sampled))
			out.escalated = append(out.escalated, float64(er.EscalatedStrata))
			out.skipped = append(out.skipped, float64(er.PredictSkippedStrata))
		}
		out.misses += er.PredictMisses
	}
	out.totalS += time.Since(start).Seconds()
	return nil
}

// finishMonitor saves the delta-encoded series and checks the campaign:
// no predict miss, and the sampled, predicted, stitched map equal to
// what one full sweep at the same round id sees.
func finishMonitor(r *rig, out *monitorOut, opt options, tr *tracer) {
	scn, ss := r.monScn, r.mon
	epochs := ss.Result().Epochs
	last := epochs[len(epochs)-1]
	path := filepath.Join(opt.outDir, fmt.Sprintf("series-%d.vps", os.Getpid()))
	defer os.Remove(path)
	sp := tr.begin("dataset.WriteSeriesFile", 0, -1)
	t0 := time.Now()
	err := dataset.WriteSeriesFile(path, ss.Series())
	out.seriesWriteMS = ms(time.Since(t0))
	tr.end(sp)
	out.totalS += time.Since(t0).Seconds()
	out.ok(err == nil, "series file: %v", err)
	if st, err := os.Stat(path); err == nil {
		out.seriesBytes = st.Size()
	}

	out.ok(out.misses == 0, "%d predict misses on a campaign with no out-of-band change", out.misses)

	full, _, err := scn.Measure(r.monCfg.RoundID)
	out.ok(err == nil && last.Map.Equal(full), "final stitched map differs from a full re-measurement (err %v)", err)
	out.fingerprint, _ = catchmentFingerprint(last.Map)

	sp = tr.begin("dataset.Series.At", 0, -1)
	t0 = time.Now()
	at, err := ss.Series().At(ss.Series().Len() - 1)
	out.seriesAtMS = ms(time.Since(t0))
	tr.end(sp)
	out.ok(err == nil && at.Equal(last.Map), "series replay to the last epoch differs from the live map (err %v)", err)
}

// monitorStages holds the costs of the stages Session.Step hides,
// measured by calling each stage's public function on the step's own
// inputs. They are computed, not observed inside the step.
type monitorStages struct {
	subsetRunMS   float64
	subsetTargets int
	diffMS        float64
	cloneMS       float64
	predictDiffMS float64
	whatIfMS      float64
}

func measureMonitorStages(scn *scenario.Scenario, roundID uint16, m *monitorOut, tr *tracer) (monitorStages, error) {
	var st monitorStages
	const reps = 3

	// A 1/8 per-AS subset with a floor of one block per AS, the shape
	// of the monitor's own sample.
	sub := ipv4.NewBlockSet(len(scn.Top.Blocks) / 8)
	seen := make([]int, len(scn.Top.ASes))
	for i := range scn.Top.Blocks {
		b := &scn.Top.Blocks[i]
		if seen[b.ASIdx]%8 == 0 {
			sub.Add(b.Block)
		}
		seen[b.ASIdx]++
	}
	f := scn.Fork()
	var runs []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("verfploeter.MeasureSubset", i, -1)
		t0 := time.Now()
		_, stats, err := f.MeasureSubset(roundID, sub)
		runs = append(runs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return st, err
		}
		st.subsetTargets = stats.Targets
	}
	st.subsetRunMS = median(runs)

	if m.mapBefore == nil {
		return st, fmt.Errorf("monitor phase recorded no action epoch")
	}
	var diffs, clones, pdiffs, whatifs []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("verfploeter.Diff", i, -1)
		t0 := time.Now()
		d := verfploeter.Diff(m.mapBefore, m.mapAfter)
		diffs = append(diffs, ms(time.Since(t0)))
		tr.end(sp)
		if d.Stable == 0 {
			return st, fmt.Errorf("diff across the action epoch found no stable block")
		}

		sp = tr.begin("verfploeter.Clone", i, -1)
		t0 = time.Now()
		c := m.mapAfter.Clone()
		clones = append(clones, ms(time.Since(t0)))
		tr.end(sp)
		if c.Len() != m.mapAfter.Len() {
			return st, fmt.Errorf("clone lost entries")
		}

		sp = tr.begin("predict.Diff", i, -1)
		t0 = time.Now()
		p := predict.Diff(scn.Top, m.asgBefore, m.asgAfter, predict.Config{})
		pdiffs = append(pdiffs, ms(time.Since(t0)))
		tr.end(sp)
		if !p.Exact {
			return st, fmt.Errorf("predict.Diff stood down on the action-epoch assignment pair")
		}

		flipped := append([]int(nil), f.Prepends()...)
		flipped[1] ^= 1
		sp = tr.begin("predict.WhatIf", i, -1)
		t0 = time.Now()
		predict.WhatIf(f, flipped, nil, f.RoutingEpoch(), predict.Config{})
		whatifs = append(whatifs, ms(time.Since(t0)))
		tr.end(sp)
	}
	st.diffMS, st.cloneMS = median(diffs), median(clones)
	st.predictDiffMS, st.whatIfMS = median(pdiffs), median(whatifs)
	return st, nil
}
