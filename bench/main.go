// Command bench is the repository's benchmark: it runs the paths an
// operator waits on — an internet-tier sweep to a dataset on disk, a
// monitor epoch, a playbook decision, a lookup through the HTTP API —
// verifies what they produced, and prints every metric by name and
// unit. See README.md in this directory.
//
//	go run ./bench --workload sweep-internet --seed 1 --seconds 12 --trace 0
//	go run ./bench --workload all --runs 5 --out bench/out/set.json
//	go run ./bench compare A.json B.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if worse := compareSets(os.Stdout, a, b); worse > 0 {
		fmt.Printf("%d comparisons worse\n", worse)
		return 1
	}
	return 0
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, p := range profiles() {
		names = append(names, p.name)
	}
	workload := fs.String("workload", "all", "one of "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed for every generated input (round ids, address stream, attack mix)")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal measuring time of one run; iteration counts scale with it")
	trace := fs.Int("trace", 0, "1 records a span around every call into a layer and reports the per-layer metrics")
	workers := fs.Int("workers", defaultWorkers(), "worker bound for every scenario and for the load generators")
	runs := fs.Int("runs", 1, "with --workload all: untraced runs per workload (one traced run follows)")
	out := fs.String("out", "", "write the result set (environment and every run) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *workers < 1 || *runs < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds, --workers and --runs must be positive, --trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, workers: *workers, trace: *trace == 1, outDir: "bench/out"}
	env := stampEnvironment(opt)
	printEnvironment(os.Stdout, env)

	var failed int
	var err error
	if *workload == "all" {
		failed, err = runAll(opt, env, *runs, *out)
	} else if p, ok := profileByName(*workload); ok {
		failed, err = runOne(p, opt, env, *out)
	} else {
		err = fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runOne is the harness mode: one run, its report, and the result
// object as the last line of standard output.
func runOne(p profile, opt options, env environment, out string) (failed int, err error) {
	res, err := runWorkload(p.scaled(opt.seconds), opt)
	if err != nil {
		return 0, err
	}
	printRun(os.Stdout, res)
	if out != "" {
		if err := writeResultSet(out, &resultSet{Env: env, Runs: []*runResult{res}}); err != nil {
			return 0, err
		}
	}
	line, err := resultLine(res)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s\n", line)
	return res.Failed, nil
}

// runAll produces a result set: per workload, runs untraced runs and
// then a traced one. Every run gets a process of its own, as a harness
// would give it: a run that inherits the previous run's heap is
// measurably slower.
func runAll(opt options, env environment, runs int, out string) (failed int, err error) {
	set := &resultSet{Env: env}
	for _, p := range profiles() {
		var plain []*runResult
		for i := 0; i <= runs; i++ {
			traced := i == runs
			res, err := runInChild(p.name, opt, traced)
			if err != nil {
				return failed, err
			}
			printRun(os.Stdout, res)
			set.Runs = append(set.Runs, res)
			failed += res.Failed
			if traced {
				printTraceCost(p.name, plain, res)
			} else {
				plain = append(plain, res)
			}
		}
	}
	if out != "" {
		if err := writeResultSet(out, set); err != nil {
			return failed, err
		}
		fmt.Printf("result set written to %s\n", out)
	}
	if failed > 0 {
		fmt.Printf("%d checks failed\n", failed)
	}
	return failed, nil
}

// runInChild runs one workload once in a child process of this same
// binary and reads its result back through a scratch file.
func runInChild(workload string, opt options, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(opt.outDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--out", tmp, "--trace", trace,
		"--seed", strconv.FormatUint(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--workers", strconv.Itoa(opt.workers))
	cmd.Stderr = os.Stderr
	// Exit status 1 means checks failed; the result file still says which.
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("%s run: %w", workload, err)
	}
	set, err := readResultSet(tmp)
	if err != nil {
		return nil, err
	}
	if len(set.Runs) != 1 {
		return nil, fmt.Errorf("%s run: child wrote %d results", workload, len(set.Runs))
	}
	return set.Runs[0], nil
}

// printTraceCost shows what tracing cost as measured: each timing of the
// traced run against the median of the untraced runs before it.
func printTraceCost(workload string, plain []*runResult, traced *runResult) {
	fmt.Printf("  traced vs untraced, %s:", workload)
	for _, spec := range endToEnd {
		if spec.Unit == "count" || spec.Name == "setup_s" {
			continue
		}
		base := median(values(plain, spec.Name))
		if base == 0 {
			continue
		}
		fmt.Printf(" %s %+.1f%%", spec.Name, 100*(traced.Metrics[spec.Name].Value-base)/base)
	}
	fmt.Println()
}
