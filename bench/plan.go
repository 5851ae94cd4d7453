package main

import (
	"fmt"
	"math"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/playbook"
	"verfploeter/internal/scenario"
)

type planOut struct {
	checks
	coldMS      []float64
	warmMS      []float64
	coldAllocs  []float64
	candidates  int
	hits        uint64 // route-cache hits and misses over every search
	misses      uint64
	best        string
	fingerprint uint64 // best index and every candidate's cost
}

// planFingerprint folds the chosen index and each candidate's cost bit
// pattern: equal fingerprints mean an identical decision.
func planFingerprint(p *playbook.Plan) uint64 {
	fp := fpMix(0, uint64(p.Best))
	for i := range p.Candidates {
		fp = fpMix(fp, math.Float64bits(p.Candidates[i].Cost))
	}
	return fp
}

// runPlan times one playbook decision n more times with the route
// cache emptied first (what an operator pays when the attack starts),
// then n times warm, and adds them to out. Every search of the run must
// reach the same decision.
func runPlan(s *scenario.Scenario, cfg playbook.Config, out *planOut, n int, tr *tracer) {
	check := func(kind string, i int, p *playbook.Plan) {
		// Holding is only acceptable when it already fits under capacity.
		out.ok(p.Best != 0 || p.Hold().Feasible, "%s search %d chose hold under overload", kind, i)
		fp := planFingerprint(p)
		if out.fingerprint == 0 {
			out.fingerprint = fp
			out.candidates = len(p.Candidates)
			out.best = p.Chosen().Label
		}
		out.ok(fp == out.fingerprint, "%s search %d: decision %016x differs from the first (%016x)", kind, i, fp, out.fingerprint)
	}
	for k := 0; k < n; k++ {
		i := len(out.coldMS) // searches are numbered across slices
		bgp.ResetRouteCache()
		a0 := mallocs()
		sp := tr.begin("playbook.Search/cold", i, -1)
		t0 := time.Now()
		p := playbook.Search(s, cfg)
		out.coldMS = append(out.coldMS, ms(time.Since(t0)))
		tr.end(sp)
		out.coldAllocs = append(out.coldAllocs, float64(mallocs()-a0))
		h, m := bgp.RouteCacheStats()
		out.hits, out.misses = out.hits+h, out.misses+m
		check("cold", i, p)
	}
	for k := 0; k < n; k++ {
		i := len(out.warmMS)
		h0, m0 := bgp.RouteCacheStats()
		sp := tr.begin("playbook.Search/warm", i, -1)
		t0 := time.Now()
		p := playbook.Search(s, cfg)
		out.warmMS = append(out.warmMS, ms(time.Since(t0)))
		tr.end(sp)
		h, m := bgp.RouteCacheStats()
		out.hits, out.misses = out.hits+h-h0, out.misses+m-m0
		check("warm", i, p)
	}
}

// hitRatio is route-cache hits over lookups, cold and warm searches
// together.
func (o *planOut) hitRatio() float64 {
	if o.hits+o.misses == 0 {
		return 0
	}
	return float64(o.hits) / float64(o.hits+o.misses)
}

// bgpStages holds the costs of the bgp calls playbook.Search hides,
// measured by calling them on the search's own candidate grammar.
type bgpStages struct {
	deltaMS, assignDeltaMS, batchMS float64
	deltaAllocs                     float64
}

func measureBGPStages(s *scenario.Scenario, workers int, tr *tracer) (bgpStages, error) {
	var st bgpStages
	const reps = 5
	prev, prevAsg := s.Table, s.Asg
	pre := s.Prepends()
	pre[1]++
	mod := s.AnnouncementsFor(pre, nil)

	// Hold plus the per-site prepend ladder, as Search enumerates them.
	sets := [][]bgp.Announcement{s.AnnouncementsFor(nil, nil)}
	for site := range s.Sites {
		for p := 1; p <= 3; p++ {
			pp := s.Prepends()
			pp[site] += p
			sets = append(sets, s.AnnouncementsFor(pp, nil))
		}
	}

	var deltas, assigns, batches, allocs []float64
	for i := 0; i < reps; i++ {
		a0 := mallocs()
		sp := tr.begin("bgp.ComputeDelta", i, -1)
		t0 := time.Now()
		tbl := bgp.ComputeDelta(prev, mod)
		deltas = append(deltas, ms(time.Since(t0)))
		tr.end(sp)
		if tbl.Changed == nil {
			return st, fmt.Errorf("ComputeDelta fell back to a cold compute")
		}
		sp = tr.begin("bgp.AssignDelta", i, -1)
		t0 = time.Now()
		asg := tbl.AssignDelta(prevAsg)
		assigns = append(assigns, ms(time.Since(t0)))
		tr.end(sp)
		allocs = append(allocs, float64(mallocs()-a0))
		if len(asg.Primary) != len(prevAsg.Primary) {
			return st, fmt.Errorf("AssignDelta returned %d blocks, want %d", len(asg.Primary), len(prevAsg.Primary))
		}

		bgp.ResetRouteCache()
		sp = tr.begin("bgp.ComputeBatch", i, -1)
		t0 = time.Now()
		bgp.ComputeBatch(s.Top, sets, s.RoutingEpoch(), workers)
		batches = append(batches, ms(time.Since(t0)))
		tr.end(sp)
	}
	st.deltaMS, st.assignDeltaMS, st.batchMS = median(deltas), median(assigns), median(batches)
	st.deltaAllocs = median(allocs)
	return st, nil
}
