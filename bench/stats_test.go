package main

import (
	"math"
	"testing"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {14, 0}, {39, 0}, // n too small for any percentile
		{40, 75}, {99, 75}, // 10 of 40 lie beyond p75; p90 would rest on 9.9 of 99
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {100000, 99.99},
	} {
		if got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	small := summarize([]float64{3, 1, 2})
	if small.N != 3 || small.Median != 2 || small.TailP != 0 || small.Tail != 0 {
		t.Errorf("n=3: got %+v, want median 2 and no tail", small)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	d := summarize(xs)
	if d.N != 1000 || d.Median != 500.5 || d.TailP != 99 || d.Tail != 990 {
		t.Errorf("n=1000: got %+v, want median 500.5, p99 = 990", d)
	}
	if got := summarize(nil); got.N != 0 || got.Median != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, tc := range []struct{ p, want float64 }{{50, 20}, {75, 30}, {76, 40}, {100, 40}, {1, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 2.5, 4, 8, 16}, [3]float64{2, 4, 12}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}
