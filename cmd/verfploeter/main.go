// Command verfploeter runs one anycast catchment measurement over a named
// scenario and reports the result — the equivalent of the paper's tool
// run against B-Root or Tangled.
//
//	verfploeter -scenario b-root -size medium
//	verfploeter -scenario tangled -map -prepend 0,0,0,0,0,0,0,0,0
//	verfploeter -scenario b-root -hitlist-out hitlist.txt -catchment-out catchment.tsv
//	verfploeter -scenario b-root -playbook -attack shape=concentrated,volume=3x -capacity 2,4.5
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"verfploeter"
	"verfploeter/internal/cli"
	"verfploeter/internal/dataset"
	"verfploeter/internal/loadmodel"
)

const tool = "verfploeter"

func main() {
	var (
		scenarioName = flag.String("scenario", "b-root", "scenario: b-root, tangled, nl, cdn")
		configPath   = flag.String("config", "", "build a custom deployment from a JSON declaration instead of -scenario")
		sizeName     = flag.String("size", "medium", "topology size: tiny, small, medium, large")
		seed         = flag.Uint64("seed", 7, "scenario seed")
		round        = flag.Uint("round", 1, "measurement round identifier (ICMP ident)")
		prepends     = flag.String("prepend", "", "comma-separated per-site prepend counts")
		showMap      = flag.Bool("map", false, "render the ASCII catchment map")
		hitlistOut   = flag.String("hitlist-out", "", "write the hitlist (ISI text format) to this file")
		catchOut     = flag.String("catchment-out", "", "write the catchment (block\\tsite TSV) to this file")
		datasetOut   = flag.String("save-dataset", "", "save the full measurement as a .vpds dataset file")
		datasetID    = flag.String("dataset-id", "", "dataset id stored in -save-dataset (default scenario-round)")
		workers      = flag.Int("workers", 0, "parallel engine width; 0 = one worker per CPU (results are identical for any value)")
		faultsSpec   = flag.String("faults", "", "fault profile: none, light, moderate, heavy, extreme, or key=value list (probe-loss=0.3,rate-limit=2,seed=9)")
		faultSeed    = flag.Uint64("fault-seed", 0, "override the fault profile's seed (same seed = same drops at any -workers)")
		retries      = flag.Int("retries", 0, "per-target retransmission budget under loss (capped exponential backoff)")
		monitorMode  = flag.Bool("monitor", false, "run a continuous monitoring campaign instead of one round (with -monitor, -prepend becomes an operator action at epoch 1)")
		playbookMode = flag.Bool("playbook", false, "search the announcement playbook against -attack (standalone: print the ranked candidates; with -monitor: closed-loop defense)")
		attackSpec   = flag.String("attack", "shape=spoofed,volume=5x", "attack mix for -playbook: shape=spoofed|concentrated,volume=<n>x|<abs>,ases=<k>,seed=<s>")
		capacitySpec = flag.String("capacity", "2", "per-site capacity as a multiple of normal daily query volume: one value for all sites, or a comma list per site")
		allowWd      = flag.Bool("allow-withdraw", false, "let the playbook consider withdrawing a site entirely")
		epochs       = flag.Int("epochs", 4, "monitoring campaign length in sweep epochs, baseline included")
		sample       = flag.Float64("sample", 0, "per-AS sampled block fraction per epoch (0 = full re-probe every epoch)")
		predictMode  = flag.Bool("predict", false, "with -monitor -sample: probe-free prediction — high-confidence predicted-stable strata skip re-probing, control-plane flip sets escalate directly")
		seriesOut    = flag.String("save-series", "", "save the monitoring run as a .vpds series file (format v3)")
		metrics      = flag.Bool("metrics", false, "print instrumentation counters/histograms after the run")
		traceSpans   = flag.Bool("trace", false, "print the phase/span trace after the run")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	reg, obsClose := cli.NewObs(tool, *metrics, *traceSpans, *pprofAddr)
	defer obsClose()
	ctx, stopSignals := cli.ShutdownContext(tool)
	defer stopSignals()

	var d *verfploeter.Deployment
	var err error
	if *configPath != "" {
		if d, err = verfploeter.FromConfigFile(*configPath); err != nil {
			fatal(err)
		}
	} else {
		size, err := cli.ParseSize(*sizeName)
		if err != nil {
			usage(err)
		}
		if d, err = verfploeter.Build(*scenarioName, size, *seed); err != nil {
			usage(err)
		}
	}
	d.Workers = *workers
	d.Retries = *retries
	d.Obs = reg
	profile, err := verfploeter.ParseFaults(*faultsSpec)
	if err != nil {
		usage(err)
	}
	if *faultSeed != 0 {
		profile.Seed = *faultSeed
	}
	if profile.Enabled() {
		d.SetFaults(profile)
	}
	var pp []int
	if *prepends != "" {
		pp, err = parsePrepends(*prepends, len(d.Sites))
		if err != nil {
			usage(err)
		}
		if !*monitorMode {
			d.SetPrepends(pp)
		}
	}

	if *monitorMode {
		var eng *verfploeter.PlaybookEngine
		var loadLog *verfploeter.Log
		if *playbookMode {
			pcfg, err := playbookConfig(d, *attackSpec, *capacitySpec, *allowWd)
			if err != nil {
				usage(err)
			}
			eng = d.NewPlaybookEngine(verfploeter.PlaybookEngineConfig{Config: pcfg})
			loadLog = pcfg.Normal
		}
		if err := runMonitor(ctx, d, *epochs, *sample, *predictMode, pp, *seriesOut, eng, loadLog); err != nil {
			fatal(err)
		}
		cli.EmitObs(os.Stdout, reg, *metrics, *traceSpans)
		return
	}
	if *playbookMode {
		if err := runPlaybook(d, *attackSpec, *capacitySpec, *allowWd); err != nil {
			fatal(err)
		}
		cli.EmitObs(os.Stdout, reg, *metrics, *traceSpans)
		return
	}

	catch, stats, err := d.Map(uint16(*round))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scenario %s (seed %d): %d sites, %d hitlist targets\n",
		d.Name, d.Seed, len(d.Sites), d.Hitlist.Len())
	fmt.Printf("probed %d targets; last reply copy (late ones included) at %v virtual time; %d replies kept\n",
		stats.Sent, stats.Elapsed.Round(1e9), stats.Clean.Kept)
	fmt.Printf("cleaning: %d duplicates, %d unsolicited, %d late, %d wrong-round\n",
		stats.Clean.Duplicates, stats.Clean.Unsolicited, stats.Clean.Late, stats.Clean.WrongRound)
	if profile.Enabled() {
		fmt.Printf("faults: %s (seed %d), retry budget %d (%d retransmissions)\n",
			profile, profile.Seed, *retries, stats.Retried)
	}
	fmt.Printf("response rate: %.1f%% (%d of %d targets mapped)\n",
		100*stats.ResponseRate(), stats.Responded, stats.Targets)
	fmt.Println()
	counts := catch.Counts()
	for i, code := range d.SiteCodes() {
		fmt.Printf("%-5s %8d blocks  %5.1f%%\n", code, counts[i], 100*catch.Fraction(i))
	}

	if *showMap {
		fmt.Println()
		if err := d.RenderCatchmentMap(os.Stdout, catch); err != nil {
			fatal(err)
		}
	}
	if *hitlistOut != "" {
		if err := writeFile(*hitlistOut, func(w *bufio.Writer) error {
			_, err := d.Hitlist.WriteTo(w)
			return err
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("hitlist written to %s\n", *hitlistOut)
	}
	if *datasetOut != "" {
		id := *datasetID
		if id == "" {
			id = fmt.Sprintf("%s-r%d", d.Name, *round)
		}
		ds := &dataset.Dataset{
			Meta: dataset.Meta{
				ID: id, Scenario: d.Name, Sites: d.SiteCodes(),
				RoundID: uint16(*round), Seed: *seed,
				CreatedUnix: time.Now().Unix(),
			},
			Catchment: catch,
			Stats:     stats,
		}
		if err := dataset.WriteFile(*datasetOut, ds); err != nil {
			fatal(err)
		}
		fmt.Printf("dataset %s written to %s\n", id, *datasetOut)
	}
	if *catchOut != "" {
		if err := writeFile(*catchOut, func(w *bufio.Writer) error {
			blocks := catch.Blocks()
			sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
			for _, b := range blocks {
				site, _ := catch.SiteOf(b)
				if _, err := fmt.Fprintf(w, "%s\t%s\n", b, d.SiteCodes()[site]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("catchment written to %s\n", *catchOut)
	}
	cli.EmitObs(os.Stdout, reg, *metrics, *traceSpans)
}

// runMonitor drives a continuous-monitoring campaign and prints the
// drift report. A -prepend value becomes an operator action at epoch 1,
// so the campaign observes (and classifies) the change rather than
// starting from it. The final "monitor:" line is stable for a fixed
// scenario/seed/flags — scripts/check.sh pins it as a golden; when
// -playbook attaches an engine its summary prints after that line so
// the golden survives. On SIGINT/SIGTERM the campaign stops at the next
// epoch boundary and still reports — and flushes the -save-series file
// for — the epochs it completed.
func runMonitor(ctx context.Context, d *verfploeter.Deployment, epochs int, sample float64,
	predictOn bool, pp []int, seriesOut string, eng *verfploeter.PlaybookEngine, loadLog *verfploeter.Log) error {
	var actions []verfploeter.MonitorAction
	if pp != nil {
		actions = append(actions, verfploeter.MonitorAction{Epoch: 1, Prepend: pp})
	}
	mcfg := verfploeter.MonitorConfig{
		Epochs:  epochs,
		Sample:  sample,
		Predict: predictOn,
		Actions: actions,
	}
	if eng != nil {
		mcfg.LoadLog = loadLog
		mcfg.Controller = eng.Controller()
	}
	ss := d.NewMonitorSession(mcfg)
	interrupted := false
	for e := 0; e < epochs; e++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if _, err := ss.Step(); err != nil {
			return err
		}
	}
	res := ss.Result()
	if interrupted {
		fmt.Fprintf(os.Stderr, "%s: interrupted after %d of %d epochs\n", tool, len(res.Epochs), epochs)
	}

	fmt.Printf("scenario %s (seed %d): %d sites, %d hitlist targets\n",
		d.Name, d.Seed, len(d.Sites), d.Hitlist.Len())
	mode := "full re-probe"
	if sample > 0 {
		mode = fmt.Sprintf("sample rate %.3f", sample)
		if predictOn {
			mode += " + prediction"
		}
	}
	fmt.Printf("monitoring %d epochs (%s)\n\n", len(res.Epochs), mode)

	for _, er := range res.Epochs {
		esc := ""
		if er.EscalatedStrata > 0 {
			esc = fmt.Sprintf(", %d strata escalated", er.EscalatedStrata)
		}
		fmt.Printf("epoch %d: %d probes%s, %d blocks mapped\n",
			er.Epoch, er.Probes, esc, er.Map.Len())
		for _, ev := range er.Events {
			fmt.Printf("  %s\n", ev)
		}
	}

	flips := 0
	for _, ev := range res.Events {
		if ev.Type == verfploeter.EventFlips {
			flips += ev.Blocks
		}
	}
	fmt.Printf("\nmonitor: epochs=%d events=%d flips=%d probes=%d baseline=%d\n",
		len(res.Epochs), len(res.Events), flips, res.TotalProbes, res.BaselineProbes)
	if predictOn {
		// After the pinned "monitor:" golden so existing checks survive.
		fmt.Printf("predict: hits=%d misses=%d skipped_strata=%d\n",
			res.PredictHits, res.PredictMisses, res.PredictSkippedStrata)
	}
	if eng != nil {
		fmt.Println()
		for _, dec := range eng.Decisions {
			fmt.Printf("playbook %s\n", dec)
		}
		fmt.Printf("playbook: applied=%d rollbacks=%d\n", eng.Applied, eng.Rollbacks)
	}

	if seriesOut != "" {
		if err := verfploeter.SaveSeries(seriesOut, res.Series); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", seriesOut)
	}
	return nil
}

// playbookConfig assembles the shared -playbook configuration: the
// synthesized attack log, per-site absolute capacities, and the defended
// target — whichever site runs hottest under the current routing with
// the attack landed on top of normal load.
func playbookConfig(d *verfploeter.Deployment, attackSpec, capacitySpec string, allowWithdraw bool) (verfploeter.PlaybookConfig, error) {
	var pcfg verfploeter.PlaybookConfig
	mix, err := verfploeter.ParseAttackMix(attackSpec)
	if err != nil {
		return pcfg, err
	}
	normal := d.RootLog()
	total := normal.TotalQPD()
	attack := d.AttackLog(mix, total)
	caps, err := parseCapacities(capacitySpec, len(d.Sites), total)
	if err != nil {
		return pcfg, err
	}
	return verfploeter.PlaybookConfig{
		Target:        pickTarget(d, normal, attack, caps),
		Capacity:      caps,
		Normal:        normal,
		Attack:        attack,
		AllowWithdraw: allowWithdraw,
		Workers:       d.Workers,
		Obs:           d.Obs,
	}, nil
}

// pickTarget predicts per-site utilization under the current routing
// state (no candidate applied) and returns the most-overloaded site.
func pickTarget(d *verfploeter.Deployment, normal, attack *verfploeter.Log, caps []float64) int {
	_, asg := d.PredictRouting(d.Prepends(), d.DownSites(), d.RoutingEpoch())
	n := loadmodel.PredictAssigned(d.Top, asg, normal, loadmodel.ByQueries)
	a := loadmodel.PredictAssigned(d.Top, asg, attack, loadmodel.ByQueries)
	target, worst := 0, -1.0
	for i := range caps {
		load := 0.0
		if i < len(n) {
			load += n[i]
		}
		if i < len(a) {
			load += a[i]
		}
		if u := load / caps[i]; u > worst {
			worst, target = u, i
		}
	}
	return target
}

// runPlaybook is the one-shot mode: synthesize the attack, rank every
// announcement candidate, and print the table plus a stable
// "chosen plan:" line (scripts/check.sh pins it as a golden).
func runPlaybook(d *verfploeter.Deployment, attackSpec, capacitySpec string, allowWithdraw bool) error {
	pcfg, err := playbookConfig(d, attackSpec, capacitySpec, allowWithdraw)
	if err != nil {
		return err
	}
	plan := d.SearchPlaybook(pcfg)
	hold, chosen := plan.Hold(), plan.Chosen()
	codes := d.SiteCodes()

	fmt.Printf("scenario %s (seed %d): %d sites, %d hitlist targets\n",
		d.Name, d.Seed, len(d.Sites), d.Hitlist.Len())
	fmt.Printf("attack: %.2fG queries/day on %.2fG normal; defending %s\n",
		pcfg.Attack.TotalQPD()/1e9, pcfg.Normal.TotalQPD()/1e9, codes[pcfg.Target])
	fmt.Println()
	fmt.Printf("%-8s %11s %11s %11s %9s %9s\n",
		"plan", "target util", "absorption", "collateral", "cost", "feasible")
	for _, c := range plan.Candidates {
		fmt.Printf("%-8s %10.0f%% %10.0f%% %11.2f %9.3f %9v\n",
			c.Label, 100*c.Util[pcfg.Target], 100*c.Absorption, c.Collateral, c.Cost, c.Feasible)
	}
	fmt.Println()
	fmt.Printf("chosen plan: %s (target %s: util %.2f -> %.2f, absorption %.0f%%)\n",
		chosen.Label, codes[pcfg.Target],
		hold.Util[pcfg.Target], chosen.Util[pcfg.Target], 100*chosen.Absorption)
	return nil
}

// parseCapacities turns "-capacity 2,4.5" into absolute per-site
// queries/day; a single value broadcasts to every site.
func parseCapacities(spec string, nSites int, total float64) ([]float64, error) {
	parts := strings.Split(spec, ",")
	vals := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad capacity %q", p)
		}
		vals = append(vals, v)
	}
	if len(vals) == 1 {
		for len(vals) < nSites {
			vals = append(vals, vals[0])
		}
	}
	if len(vals) != nSites {
		return nil, fmt.Errorf("-capacity needs 1 or %d values, got %d", nSites, len(vals))
	}
	caps := make([]float64, nSites)
	for i, v := range vals {
		caps[i] = v * total
	}
	return caps, nil
}

func parsePrepends(s string, nSites int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != nSites {
		return nil, fmt.Errorf("-prepend needs %d comma-separated values, got %d", nSites, len(parts))
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad prepend %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func writeFile(path string, fn func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) { cli.Fatalf(tool, "%v", err) }
func usage(err error) { cli.Usagef(tool, "%v", err) }
