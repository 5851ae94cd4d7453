package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultSet is what `--workload all --out FILE` writes and `compare`
// reads: every run of every workload with the environment they ran on.
type resultSet struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func writeResultSet(path string, set *resultSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func printEnvironment(w io.Writer, env environment) {
	dirty := ""
	if env.GitDirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "env: git %s%s, %s, cpu %q, nproc %d, GOMAXPROCS %d, workers %d, seed %d, seconds %g\n",
		env.GitSHA, dirty, env.GoVersion, env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.Workers, env.Seed, env.Seconds)
}

// printRun lists every metric of the run by name and unit, end-to-end
// first, in the order BENCHMARK.json declares them.
func printRun(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Trace {
		mode = "traced: end-to-end values below include span cost"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %gs, %s) — %.1fs wall\n", r.Workload, r.Seed, r.Seconds, mode, r.WallS)
	row := func(m metricSpec) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return
		}
		line := fmt.Sprintf("  %-32s %16.4f %-6s", m.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.TailP > 0 {
			line += fmt.Sprintf(" p%g=%.4f", v.TailP, v.Tail)
		}
		if v.Computed {
			line += " computed"
		}
		if v.Note != "" {
			line += " (" + v.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, m := range endToEnd {
		row(m)
	}
	fmt.Fprintf(w, "  %-32s %16.6f %-6s failed=%d attempted=%d\n", "failed_share", r.FailedShare, "ratio", r.Failed, r.Attempted)
	if r.Trace {
		for _, m := range perLayer {
			row(m)
		}
	}
	for _, k := range []string{"sweep.rounds", "monitor.final_map", "playbook.plan"} {
		fmt.Fprintf(w, "  fingerprint %-20s %s\n", k, r.Fingerprints[k])
	}
	for _, why := range r.Why {
		fmt.Fprintf(w, "  FAILED: %s\n", why)
	}
}

// resultLine is the single JSON object a harness reads from the last
// line of standard output: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func resultLine(r *runResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	metrics := map[string]mv{}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = mv{Value: v.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}
