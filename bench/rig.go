package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"verfploeter/internal/loadgen"
	"verfploeter/internal/monitor"
	"verfploeter/internal/playbook"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/server"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// options are the command line's settings for one run.
type options struct {
	seed    uint64
	seconds float64
	workers int
	trace   bool
	outDir  string
}

// world is one synthetic Internet with its day of root-style traffic.
// Phases never touch it directly: each takes a Fork, so one phase's
// re-announcements cannot leak into the next.
type world struct {
	scn *scenario.Scenario
	log *querylog.Log
}

// rig is everything setup_s pays for: the worlds, the monitor session
// with its baseline epoch measured, the attack model, and both tenants
// warmed up behind listening HTTP servers.
type rig struct {
	worlds map[topology.Size]*world

	sweep *world

	monScn *scenario.Scenario
	mon    *monitor.Session
	monCfg monitor.Config

	planScn *scenario.Scenario
	planCfg playbook.Config
	synthMS float64 // loadgen.Synthesize, paid once in setup

	quiet, churn         *serveRig
	quietLoad, churnLoad *load
}

func (r *rig) world(tier topology.Size, workers int) *world {
	if w, ok := r.worlds[tier]; ok {
		return w
	}
	s := scenario.BRoot(tier, worldSeed)
	s.Workers = workers
	w := &world{scn: s, log: s.RootLog()}
	r.worlds[tier] = w
	return w
}

func (w *world) fork() *world { return &world{scn: w.scn.Fork(), log: w.log} }

// monitorRound is the ICMP ident every monitor epoch of a run shares.
func monitorRound(seed uint64) uint16 { return uint16(900 + seed%1000) }

// prependToggles schedules site 1's prepend on, off, on, ... at every
// epoch divisible by every, far past any run's last epoch.
func prependToggles(every int) []monitor.Action {
	var acts []monitor.Action
	for k := 1; k <= 400; k++ {
		acts = append(acts, monitor.Action{Epoch: k * every, Prepend: []int{0, k % 2}})
	}
	return acts
}

// capacities is the BenchmarkPlaybookSearch deployment: lax can take
// twice the normal day, mia four and a half times.
func capacities(log *querylog.Log) []float64 {
	return []float64{2.0 * log.TotalQPD(), 4.5 * log.TotalQPD()}
}

func setup(p profile, opt options, tr *tracer) (*rig, error) {
	r := &rig{worlds: map[topology.Size]*world{}}

	r.sweep = r.world(p.sweepTier, opt.workers).fork()

	mw := r.world(p.monTier, opt.workers).fork()
	r.monScn = mw.scn
	r.monCfg = monitor.Config{
		Sample: 0.125, Predict: true, LoadLog: mw.log,
		RoundID: monitorRound(opt.seed),
		Actions: prependToggles(p.monActionEvery),
	}
	r.mon = monitor.NewSession(mw.scn, r.monCfg)
	if _, err := r.mon.Step(); err != nil {
		return nil, fmt.Errorf("monitor baseline: %w", err)
	}

	pw := r.world(p.planTier, opt.workers).fork()
	mix, err := loadgen.ParseAttackMix(fmt.Sprintf("shape=concentrated,volume=3x,ases=12,seed=%d", opt.seed))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	attack := mix.Synthesize(pw.scn.Top, pw.log.TotalQPD())
	r.synthMS = ms(time.Since(t0))
	r.planScn = pw.scn
	r.planCfg = playbook.Config{
		Target:   pw.scn.MustSite("lax"),
		Capacity: capacities(pw.log),
		Normal:   pw.log,
		Attack:   attack,
		Workers:  opt.workers,
	}

	if r.quiet, err = newServeRig(r.world(p.quietTier, opt.workers).fork(), opt, nil); err != nil {
		return nil, fmt.Errorf("quiet tenant: %w", err)
	}
	if r.churn, err = newServeRig(r.world(p.churnTier, opt.workers).fork(), opt, prependToggles(p.toggleEvery)); err != nil {
		r.quiet.close()
		return nil, fmt.Errorf("churn tenant: %w", err)
	}
	r.quietLoad = newLoad(r.quiet, opt.seed, opt.workers, tr)
	r.churnLoad = newLoad(r.churn, opt.seed+1, opt.workers, tr)
	return r, nil
}

func (r *rig) close() {
	r.quietLoad.client.CloseIdleConnections()
	r.churnLoad.client.CloseIdleConnections()
	r.quiet.close()
	r.churn.close()
}

const tenantName = "bench"

// warmEpochs are advanced in setup after the baseline, so the first
// timed request already sees a steady-state tenant.
const warmEpochs = 3

// serveRig is one tenant behind a real TCP listener on the loopback
// interface, served by net/http in the benchmark's own process.
type serveRig struct {
	w        *world
	capacity []float64
	tenant   *server.Tenant
	srv      *http.Server
	served   chan struct{} // closed when Serve has returned
	base     string        // http://127.0.0.1:port
	handler  http.Handler

	// snaps[e] is the snapshot published for epoch e. The 1-in-64
	// lookup check reads the one a response claims to come from.
	mu    sync.RWMutex
	snaps []*server.Snapshot
	// lastMap is the newest epoch's catchment, input to the traced run's
	// separate BuildSnapshot timing. Written by the advancing goroutine
	// only; read after it has stopped.
	lastMap *verfploeter.Catchment
}

func newServeRig(w *world, opt options, actions []monitor.Action) (*serveRig, error) {
	sr := &serveRig{w: w, capacity: capacities(w.log), served: make(chan struct{})}
	tn, err := server.NewTenant(w.scn, server.TenantConfig{
		Name: tenantName,
		Monitor: monitor.Config{
			Sample: 0.125, Predict: true, LoadLog: w.log,
			RoundID: monitorRound(opt.seed), Actions: actions,
		},
		Capacity: sr.capacity,
	}, nil)
	if err != nil {
		return nil, err
	}
	sr.tenant = tn
	sv := server.New(server.Config{})
	if err := sv.AddTenant(tn); err != nil {
		return nil, err
	}
	for e := 0; e <= warmEpochs; e++ {
		if _, err := sr.advance(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sr.handler = sv.Handler()
	sr.srv = &http.Server{Handler: sr.handler}
	sr.base = "http://" + ln.Addr().String()
	go func() {
		defer close(sr.served)
		_ = sr.srv.Serve(ln) // returns ErrServerClosed on close()
	}()
	return sr, nil
}

// advance steps the tenant one epoch and files the snapshot it
// published.
func (sr *serveRig) advance() (monitor.EpochResult, error) {
	er, err := sr.tenant.Advance(false)
	if err != nil {
		return er, err
	}
	sr.mu.Lock()
	sr.snaps = append(sr.snaps, sr.tenant.Current())
	sr.mu.Unlock()
	sr.lastMap = er.Map
	return er, nil
}

func (sr *serveRig) snapshot(epoch int) *server.Snapshot {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	if epoch >= 0 && epoch < len(sr.snaps) {
		return sr.snaps[epoch]
	}
	// Advance publishes before it returns, so a response can name an
	// epoch that advance() has not filed yet.
	if cur := sr.tenant.Current(); cur != nil && cur.Epoch == epoch {
		return cur
	}
	return nil
}

func (sr *serveRig) newest() int {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	return len(sr.snaps) - 1
}

func (sr *serveRig) close() {
	if sr == nil || sr.srv == nil {
		return
	}
	_ = sr.srv.Close()
	<-sr.served
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
