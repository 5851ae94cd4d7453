package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "lookup_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"5% slower, inside bound", lower, steady, []float64{1.05, 1.06, 1.04, 1.05, 1.05}, verdictOK},
		{"20% slower", lower, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, verdictWorse},
		{"20% faster", lower, steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, verdictOK},
		{"spread wider than bound", lower, steady, []float64{0.7, 1.0, 1.4, 0.8, 1.3}, verdictUnresolved},
		{"noisy, but every run better", lower, []float64{2.0, 2.6, 3.4, 2.2, 3.0}, []float64{1.0, 1.2, 1.9, 1.1, 1.5}, verdictOK},
		{"throughput down 20%", higher, []float64{1000, 1010, 990}, []float64{800, 805, 795}, verdictWorse},
		{"throughput up 20%", higher, []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, verdictOK},
		{"single runs carry no spread", lower, []float64{1.0}, []float64{1.3}, verdictWorse},
	} {
		if got := judge(tc.spec, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func fakeSet(scale float64, failedShare float64, fp string) *resultSet {
	set := &resultSet{Env: environment{Seed: 1}}
	for _, p := range profiles() {
		for run := 0; run < 3; run++ {
			r := &runResult{Workload: p.name, FailedShare: failedShare,
				Metrics: map[string]metricOut{}, Fingerprints: map[string]string{"monitor.final_map": fp}}
			for _, m := range endToEnd {
				v := 100 * scale
				if m.Better == "higher" {
					v = 100 / scale
				}
				r.Metrics[m.Name] = metricOut{Value: v + 0.01*float64(run), Unit: m.Unit}
			}
			set.Runs = append(set.Runs, r)
		}
	}
	return set
}

func TestCompareSets(t *testing.T) {
	var out bytes.Buffer
	if worse := compareSets(&out, fakeSet(1, 0, "aa"), fakeSet(1.005, 0, "aa")); worse != 0 {
		t.Errorf("0.5%% apart: %d worse\n%s", worse, out.String())
	}
	rows := len(profiles()) * (len(endToEnd) + 2)
	if got := strings.Count(out.String(), "\n"); got != rows+3 {
		t.Errorf("report has %d lines, want %d rows + 3 header lines", got, rows)
	}

	out.Reset()
	// Times 50% up, throughput a third down: beyond every bound.
	if worse := compareSets(&out, fakeSet(1, 0, "aa"), fakeSet(1.5, 0, "aa")); worse != len(profiles())*len(endToEnd) {
		t.Errorf("50%% worse everywhere: %d worse, want %d\n%s", worse, len(profiles())*len(endToEnd), out.String())
	}
	if worse := compareSets(&out, fakeSet(1, 0, "aa"), fakeSet(1, 0.001, "aa")); worse != len(profiles()) {
		t.Errorf("failed_share up: %d worse, want one per workload", worse)
	}
	if worse := compareSets(&out, fakeSet(1, 0, "aa"), fakeSet(1, 0, "bb")); worse != len(profiles()) {
		t.Errorf("fingerprints differ at one seed: %d worse, want one per workload", worse)
	}
	if worse := compareSets(&out, fakeSet(1, 0, "aa"), &resultSet{}); worse != len(profiles()) {
		t.Errorf("empty set B: %d worse, want one per workload", worse)
	}
}
