package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"verfploeter/internal/topology"
)

// benchmarkFile is BENCHMARK.json as the harness reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the tables in workloads.go declare the same
// workloads and metrics, in the same order.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the iteration counts are written for %d", f.RunSeconds, nominalSeconds)
	}
	ps := profiles()
	if len(f.Workloads) != len(ps) {
		t.Fatalf("%d workloads declared, %d profiles", len(f.Workloads), len(ps))
	}
	for i, w := range f.Workloads {
		if w.Name != ps[i].name || w.Why != ps[i].why {
			t.Errorf("workload %d: file says %q (%q), table says %q (%q)", i, w.Name, w.Why, ps[i].name, ps[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("file declares %d+%d metrics, tables %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better, m.Bound}) != endToEnd[i] {
			t.Errorf("end_to_end %d: file %+v, table %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range f.PerLayer {
		if (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}) != perLayer[i] {
			t.Errorf("per_layer %d: file %+v, table %+v", i, m, perLayer[i])
		}
	}
}

// tiny shrinks a workload to the smallest world and a few iterations,
// keeping what distinguishes it (cadences, which phase owns latency).
func tiny(p profile) profile {
	p.sweepTier, p.monTier, p.planTier, p.quietTier, p.churnTier =
		topology.SizeTiny, topology.SizeTiny, topology.SizeTiny, topology.SizeTiny, topology.SizeTiny
	p.sweepRounds, p.planSearches = 2, 2
	p.monActionEvery, p.monSteps = 2, 4
	p.quietSecs, p.churnSecs = 0.5, 0.5
	p.advanceEvery, p.toggleEvery = 15*time.Millisecond, 2
	return p
}

// All five workloads, traced, at the tiny tier: every metric the file
// names is emitted with its unit, both result lines can be built, every
// check passes, and the trace file is written.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, p := range profiles() {
		opt := options{seed: 2, seconds: 1, workers: 2, trace: true, outDir: dir}
		res, err := runWorkload(tiny(p), opt)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if res.Failed != 0 || res.FailedShare != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", p.name, res.Failed, res.Attempted, res.Why)
		}
		for _, m := range f.EndToEnd {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", p.name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range f.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", p.name, m.Name, got, ok, m.Unit)
			}
		}
		if res.Metrics["monitor.predict_misses"].Value != 0 || res.Metrics["server.stale_epoch_reads"].Value != 0 {
			t.Errorf("%s: predict misses %v, stale reads %v, want 0", p.name,
				res.Metrics["monitor.predict_misses"].Value, res.Metrics["server.stale_epoch_reads"].Value)
		}
		for _, traced := range []bool{false, true} {
			res.Trace = traced
			line, err := resultLine(res)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			var parsed struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatalf("%s: result line does not parse: %v", p.name, err)
			}
			want := len(f.EndToEnd)
			if traced {
				want = len(f.PerLayer)
			}
			if !parsed.Correct || parsed.Attempted != res.Attempted || len(parsed.Metrics) != want {
				t.Errorf("%s traced=%v: line has correct=%v attempted=%d and %d metrics, want %d",
					p.name, traced, parsed.Correct, parsed.Attempted, len(parsed.Metrics), want)
			}
		}
		if st, err := os.Stat(filepath.Join(dir, "trace-"+p.name+".json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty (%v)", p.name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.vp*"))
	if len(left) != 0 {
		t.Errorf("temporary dataset files left behind: %v", left)
	}
}

func TestScaledKeepsBothActionKinds(t *testing.T) {
	for _, p := range profiles() {
		s := p.scaled(0.01)
		if s.monSteps < 2*s.monActionEvery || s.sweepRounds < 2 || s.planSearches < 2 || s.quietSecs <= 0 ||
			s.churnSecs/cycles < 2*s.advanceEvery.Seconds() {
			t.Errorf("%s scaled to nothing: %+v", p.name, s)
		}
		if n := p.scaled(nominalSeconds); n != p {
			t.Errorf("%s: scaling to the nominal length changed the profile", p.name)
		}
	}
}
