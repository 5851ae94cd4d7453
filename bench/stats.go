package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// report trusts it: the 99th of 200 samples rests on two of them, and a
// single slow request moves it.
const minBeyond = 10

// tailLadder lists the percentiles a report may quote, lowest first,
// each with the whole number k such that 1/k of the samples lie beyond.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// dist is how every timing is reported: the median, the highest
// percentile with at least minBeyond samples beyond it, and n.
type dist struct {
	N      int
	Median float64
	// TailP is the percentile Tail was read at; 0 when n is too small to
	// support any percentile of the ladder.
	TailP float64
	Tail  float64
}

// pickTail returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when none does.
func pickTail(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= minBeyond*t.oneIn {
			best = t.p
		}
	}
	return best
}

// percentile reads the p-th percentile (nearest rank) of an ascending
// slice; p is in (0,100].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values when n is even); 0 for
// an empty slice.
func median(xs []float64) float64 { return medianSorted(sortedCopy(xs)) }

func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s), Median: medianSorted(s)}
	if p := pickTail(len(s)); p > 0 {
		d.TailP, d.Tail = p, percentile(s, p)
	}
	return d
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), so
// a spread computed here matches one computed by a harness in Python.
// It needs at least two samples; with fewer, all three are the sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
