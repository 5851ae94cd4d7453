package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one workload × end-to-end metric between two result sets.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

type comparison struct {
	Workload, Metric string
	A, B             float64 // medians over each set's untraced runs
	DeltaPct         float64 // (B-A)/A, signed as measured
	SpreadPct        float64 // wider of the two sets' quartile ranges over their medians
	Bound            float64
	Verdict          verdict
}

// judge applies the regression rule: B is worse when its median is
// worse than A's by more than the bound. When either set's own
// run-to-run spread is wider than the bound the comparison cannot tell,
// and is unresolved unless every run of B reads better than every run
// of A.
func judge(spec metricSpec, a, b []float64) comparison {
	c := comparison{Metric: spec.Name, Bound: spec.Bound}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	c.A, c.B = ma, mb
	if ma != 0 {
		c.DeltaPct = 100 * (mb - ma) / ma
		c.SpreadPct = 100 * (q3a - q1a) / math.Abs(ma)
	}
	if mb != 0 {
		c.SpreadPct = math.Max(c.SpreadPct, 100*(q3b-q1b)/math.Abs(mb))
	}
	worseBy := c.DeltaPct / 100
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case c.SpreadPct/100 > spec.Bound:
		c.Verdict = verdictUnresolved
		if allBetter(spec, a, b) {
			c.Verdict = verdictOK
		}
	case worseBy > spec.Bound:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictOK
	}
	return c
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(spec metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if spec.Better == "higher" && y <= x || spec.Better != "higher" && y >= x {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

func untraced(set *resultSet, workload string) []*runResult {
	var out []*runResult
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// compareSets prints one row per workload × end-to-end metric and
// returns how many rows are worse. failed_share is worse on any
// increase; at equal seeds the map and plan fingerprints must agree.
func compareSets(w io.Writer, a, b *resultSet) (worse int) {
	fmt.Fprint(w, "A: ")
	printEnvironment(w, a.Env)
	fmt.Fprint(w, "B: ")
	printEnvironment(w, b.Env)
	fmt.Fprintf(w, "%-17s %-14s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "delta%", "spread%", "bound%", "verdict")
	for _, p := range profiles() {
		ra, rb := untraced(a, p.name), untraced(b, p.name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-17s missing from one set (A %d runs, B %d runs): worse\n", p.name, len(ra), len(rb))
			worse++
			continue
		}
		for _, spec := range endToEnd {
			va, vb := values(ra, spec.Name), values(rb, spec.Name)
			c := judge(spec, va, vb)
			if c.Verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-17s %-14s %14.4f %14.4f %+8.2f %8.2f %6.1f  %s\n",
				p.name, spec.Name, c.A, c.B, c.DeltaPct, c.SpreadPct, 100*c.Bound, c.Verdict)
		}
		fa, fb := worstFailedShare(ra), worstFailedShare(rb)
		v := verdictOK
		if fb > fa {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-17s %-14s %14.6f %14.6f %8s %8s %6s  %s\n", p.name, "failed_share", fa, fb, "", "", "any", v)
		if a.Env.Seed == b.Env.Seed {
			v := verdictOK
			for k, want := range ra[0].Fingerprints {
				for _, r := range append(ra[1:], rb...) {
					if r.Fingerprints[k] != want {
						v = verdictWorse
					}
				}
			}
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-17s %-14s %68s  %s\n", p.name, "fingerprints", "identical across runs at one seed", v)
		}
	}
	return worse
}

func values(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func worstFailedShare(runs []*runResult) float64 {
	worst := 0.0
	for _, r := range runs {
		worst = math.Max(worst, r.FailedShare)
	}
	return worst
}
