// Command vp-server runs the library as a long-lived multi-tenant
// measurement service: each tenant is a scenario with its own
// continuous-monitoring campaign on the virtual clock, and the HTTP API
// answers catchment lookups, per-site load, and drift queries from
// immutable per-epoch snapshots (see DESIGN.md §14).
//
//	vp-server -addr localhost:8080 -scenario b-root -size small -seed 7
//	vp-server -tenant name=broot,scenario=b-root,size=medium -tenant name=tb,scenario=tangled,size=small
//	vp-server -addr localhost:8080 -epoch-interval 30s -sample 0.05 -save-series-dir ./series
//
//	curl 'localhost:8080/v1/tenants/broot/lookup?ip=192.0.2.1'
//	curl 'localhost:8080/v1/tenants/broot/sites'
//	curl -X POST 'localhost:8080/v1/tenants/broot/sweep'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"verfploeter"
	"verfploeter/internal/cli"
	"verfploeter/internal/obsv"
	"verfploeter/internal/server"
)

const tool = "vp-server"

// tenantSpec is one repeatable -tenant flag value, a comma-separated
// key=value list.
type tenantSpec struct {
	name     string
	scenario string
	size     string
	seed     uint64
	sample   float64
	interval time.Duration
	predict  bool    // probe-free fast path on sampled epochs
	loadLog  bool    // attach the root-style query log (load weighting)
	capacity float64 // per-site capacity as a multiple of daily volume; 0 = none
}

type tenantFlags []tenantSpec

func (tf *tenantFlags) String() string { return fmt.Sprintf("%d tenant(s)", len(*tf)) }

func (tf *tenantFlags) Set(v string) error {
	spec := tenantSpec{scenario: "b-root", size: "small", seed: 7}
	for _, kv := range strings.Split(v, ",") {
		k, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("bad -tenant field %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "name":
			spec.name = val
		case "scenario":
			spec.scenario = val
		case "size":
			spec.size = val
		case "seed":
			spec.seed, err = strconv.ParseUint(val, 10, 64)
		case "sample":
			spec.sample, err = strconv.ParseFloat(val, 64)
		case "interval":
			spec.interval, err = time.ParseDuration(val)
		case "predict":
			spec.predict, err = strconv.ParseBool(val)
		case "log":
			switch val {
			case "root":
				spec.loadLog = true
			case "none":
				spec.loadLog = false
			default:
				err = fmt.Errorf("log=%q (want root or none)", val)
			}
		case "capacity":
			spec.capacity, err = strconv.ParseFloat(val, 64)
		default:
			return fmt.Errorf("unknown -tenant key %q", k)
		}
		if err != nil {
			return fmt.Errorf("bad -tenant field %q: %v", kv, err)
		}
	}
	if spec.name == "" {
		spec.name = spec.scenario
	}
	*tf = append(*tf, spec)
	return nil
}

func main() {
	var tenants tenantFlags
	var (
		addr      = flag.String("addr", "localhost:8080", "HTTP listen address (host:0 picks a free port)")
		epochIvl  = flag.Duration("epoch-interval", 0, "real-time interval between epochs; 0 = advance only via POST .../advance")
		scenario_ = flag.String("scenario", "b-root", "single-tenant shorthand: scenario (b-root, tangled, nl, cdn)")
		sizeName  = flag.String("size", "small", "single-tenant shorthand: topology size")
		seed      = flag.Uint64("seed", 7, "single-tenant shorthand: scenario seed")
		sample    = flag.Float64("sample", 0, "single-tenant shorthand: per-AS sampled block fraction per epoch")
		predictF  = flag.Bool("predict", false, "single-tenant shorthand: probe-free prediction on sampled epochs (drift API reports predicted vs observed)")
		seriesDir = flag.String("save-series-dir", "", "write each tenant's monitoring series to <dir>/<tenant>.vpds on shutdown")
		workers   = flag.Int("workers", 0, "parallel engine width per tenant; 0 = one worker per CPU")
		metrics   = flag.Bool("metrics", false, "print instrumentation counters/histograms on shutdown")
		traceSp   = flag.Bool("trace", false, "print the phase/span trace on shutdown")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof and Prometheus /metrics on this address")
	)
	flag.Var(&tenants, "tenant",
		"tenant spec: name=...,scenario=...,size=...,seed=...,sample=...,interval=...,predict=<bool>,log=root|none,capacity=<mult> (repeatable)")
	flag.Parse()

	if len(tenants) == 0 {
		tenants = tenantFlags{{
			name: "t1", scenario: *scenario_, size: *sizeName, seed: *seed,
			sample: *sample, predict: *predictF,
		}}
	}

	reg, obsClose := cli.NewObs(tool, *metrics, *traceSp, *pprofAddr)
	defer obsClose()
	ctx, stopSignals := cli.ShutdownContext(tool)
	defer stopSignals()

	sv := server.New(server.Config{Obs: reg, EpochInterval: *epochIvl})
	for _, spec := range tenants {
		t, err := buildTenant(spec, *workers, reg)
		if err != nil {
			cli.Usagef(tool, "tenant %s: %v", spec.name, err)
		}
		if err := sv.AddTenant(t); err != nil {
			cli.Usagef(tool, "%v", err)
		}
	}

	// Bind before measuring baselines so a bad -addr fails fast.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatalf(tool, "listen: %v", err)
	}
	if err := sv.Start(); err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	for _, name := range sv.Tenants() {
		t, _ := sv.Tenant(name)
		sn := t.Current()
		fmt.Printf("tenant %s: scenario %s, epoch %d, %d blocks mapped\n",
			name, sn.Scenario, sn.Epoch, sn.Len())
	}
	fmt.Printf("listening on http://%s\n", ln.Addr())

	httpSrv := newHTTPServer(sv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		sv.Shutdown()
		cli.Fatalf(tool, "serve: %v", err)
	}

	// Graceful drain: stop accepting, give in-flight requests a
	// deadline, stop the epoch ticker, then flush per-tenant series.
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: http drain: %v\n", tool, err)
	}
	sv.Shutdown()

	if *seriesDir != "" {
		if err := os.MkdirAll(*seriesDir, 0o755); err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		for _, name := range sv.Tenants() {
			t, _ := sv.Tenant(name)
			path := filepath.Join(*seriesDir, name+".vpds")
			if err := verfploeter.SaveSeries(path, t.Series()); err != nil {
				cli.Fatalf(tool, "series %s: %v", name, err)
			}
			fmt.Printf("series written to %s\n", path)
		}
	}
	cli.EmitObs(os.Stdout, reg, *metrics, *traceSp)
	fmt.Printf("%s: clean shutdown\n", tool)
}

// Connection timeouts of the HTTP server. Without them a client that
// never finishes its request headers, or an idle keep-alive connection,
// holds a goroutine and a file descriptor forever. Lookups are small
// GETs, so a header deadline of seconds is generous. There is no write
// or whole-request timeout: a sweep request legitimately runs long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// maxHeaderBytes caps a request's header block. Every API request is a
// short GET or POST, so 64 KiB is generous; net/http's default of 1 MiB
// lets each connection make the server buffer sixteen times that. A
// request past the cap gets 431 Request Header Fields Too Large.
const maxHeaderBytes = 64 << 10

// newHTTPServer wraps the API handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// buildTenant turns one -tenant spec into a wired server.Tenant: the
// deployment, its monitor config, the optional query log, and absolute
// per-site capacities (capacity=<mult> scales the log's daily volume).
func buildTenant(spec tenantSpec, workers int, reg *obsv.Registry) (*server.Tenant, error) {
	size, err := cli.ParseSize(spec.size)
	if err != nil {
		return nil, err
	}
	d, err := verfploeter.Build(spec.scenario, size, spec.seed)
	if err != nil {
		return nil, err
	}
	d.Workers = workers
	d.Obs = reg
	cfg := server.TenantConfig{
		Name: spec.name,
		Monitor: verfploeter.MonitorConfig{
			Sample:   spec.sample,
			Interval: spec.interval,
			Predict:  spec.predict,
		},
	}
	if spec.loadLog || spec.capacity > 0 {
		log := d.RootLog()
		cfg.Monitor.LoadLog = log
		if spec.capacity > 0 {
			total := log.TotalQPD()
			cfg.Capacity = make([]float64, len(d.Sites))
			for i := range cfg.Capacity {
				cfg.Capacity[i] = spec.capacity * total
			}
		}
	}
	return server.NewTenant(d.Scenario, cfg, reg)
}
