package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
)

// Config parameterizes the daemon.
type Config struct {
	// Obs is the shared instrumentation registry (nil disables the
	// server_* metrics).
	Obs *obsv.Registry
	// EpochInterval is the real-time cadence at which Start's ticker
	// advances every tenant one epoch. 0 disables the ticker — epochs
	// then only move through POST .../advance, the deterministic mode
	// tests and the CI smoke use.
	EpochInterval time.Duration
}

// Server hosts the tenants and serves the query API. Handler routes are
// stable under concurrent epoch advancement: lookups read atomically
// published snapshots and never contend with the write side.
type Server struct {
	cfg     Config
	mu      sync.Mutex // guards tenants map mutation (AddTenant)
	tenants map[string]*Tenant
	names   []string // sorted, for deterministic listings

	// epochErrs counts ticker epochs that failed (nil without Obs).
	epochErrs *obsv.Counter

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds an empty server.
func New(cfg Config) *Server {
	return &Server{
		cfg: cfg, tenants: map[string]*Tenant{}, stop: make(chan struct{}),
		epochErrs: cfg.Obs.Counter("server_epoch_errors", "ticker epochs that failed to advance a tenant"),
	}
}

// AddTenant registers a tenant before Start.
func (sv *Server) AddTenant(t *Tenant) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, dup := sv.tenants[t.Name]; dup {
		return fmt.Errorf("server: duplicate tenant %q", t.Name)
	}
	sv.tenants[t.Name] = t
	sv.names = append(sv.names, t.Name)
	sort.Strings(sv.names)
	return nil
}

// Tenant returns a registered tenant by name.
func (sv *Server) Tenant(name string) (*Tenant, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	t, ok := sv.tenants[name]
	return t, ok
}

// Tenants returns the tenant names in sorted order.
func (sv *Server) Tenants() []string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return append([]string(nil), sv.names...)
}

// Start measures every tenant's baseline epoch (in name order, so
// multi-tenant startup is deterministic) and, when EpochInterval > 0,
// launches the real-time ticker that advances every tenant each tick.
// The API is answerable as soon as Start returns.
func (sv *Server) Start() error {
	for _, name := range sv.Tenants() {
		t, _ := sv.Tenant(name)
		if _, err := t.Advance(false); err != nil {
			return fmt.Errorf("server: tenant %s baseline: %w", name, err)
		}
	}
	if sv.cfg.EpochInterval > 0 {
		sv.wg.Add(1)
		go sv.tick()
	}
	return nil
}

func (sv *Server) tick() {
	defer sv.wg.Done()
	tk := time.NewTicker(sv.cfg.EpochInterval)
	defer tk.Stop()
	for {
		select {
		case <-sv.stop:
			return
		case <-tk.C:
			for _, name := range sv.Tenants() {
				select {
				case <-sv.stop:
					return
				default:
				}
				// A failed epoch publishes nothing: /healthz shows the
				// tenant's epoch going stale, and the counter counts it.
				t, _ := sv.Tenant(name)
				if _, err := t.Advance(false); err != nil {
					sv.epochErrs.Inc()
				}
			}
		}
	}
}

// Shutdown stops the epoch ticker and waits for any in-flight epoch to
// finish. Tenants stay readable (Series, Lookup) afterwards — the
// daemon's flush path runs after Shutdown returns.
func (sv *Server) Shutdown() {
	select {
	case <-sv.stop:
	default:
		close(sv.stop)
	}
	sv.wg.Wait()
}

// Handler returns the HTTP API:
//
//	GET  /healthz
//	GET  /v1/tenants
//	GET  /v1/tenants/{tenant}/lookup?ip=A.B.C.D
//	GET  /v1/tenants/{tenant}/sites
//	GET  /v1/tenants/{tenant}/drift?since=N
//	POST /v1/tenants/{tenant}/sweep
//	POST /v1/tenants/{tenant}/advance
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.HandleFunc("GET /v1/tenants", sv.handleTenants)
	mux.HandleFunc("GET /v1/tenants/{tenant}/lookup", sv.withTenant(sv.handleLookup))
	mux.HandleFunc("GET /v1/tenants/{tenant}/sites", sv.withTenant(sv.handleSites))
	mux.HandleFunc("GET /v1/tenants/{tenant}/drift", sv.withTenant(sv.handleDrift))
	mux.HandleFunc("POST /v1/tenants/{tenant}/sweep", sv.withTenant(sv.handleSweep))
	mux.HandleFunc("POST /v1/tenants/{tenant}/advance", sv.withTenant(sv.handleAdvance))
	return mux
}

func (sv *Server) withTenant(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := sv.Tenant(r.PathValue("tenant"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
			return
		}
		h(w, r, t)
	}
}

type healthzResponse struct {
	Status  string         `json:"status"`
	Tenants int            `json:"tenants"`
	Epochs  map[string]int `json:"epochs"`
	Blocks  map[string]int `json:"blocks"`
}

func (sv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{Status: "ok", Epochs: map[string]int{}, Blocks: map[string]int{}}
	for _, name := range sv.Tenants() {
		t, _ := sv.Tenant(name)
		resp.Tenants++
		resp.Epochs[name] = t.Epoch()
		if sn := t.Current(); sn != nil {
			resp.Blocks[name] = sn.Len()
		} else {
			resp.Status = "starting"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type tenantInfo struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	Epoch    int    `json:"epoch"`
	Blocks   int    `json:"blocks"`
	VTimeSec int64  `json:"vtime_sec"`
}

func (sv *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	out := []tenantInfo{}
	for _, name := range sv.Tenants() {
		t, _ := sv.Tenant(name)
		ti := tenantInfo{Name: name, Epoch: -1}
		if sn := t.Current(); sn != nil {
			ti.Scenario = sn.Scenario
			ti.Epoch = sn.Epoch
			ti.Blocks = sn.Len()
			ti.VTimeSec = int64(sn.VTime / time.Second)
		}
		out = append(out, ti)
	}
	writeJSON(w, http.StatusOK, out)
}

type lookupResponse struct {
	Tenant    string `json:"tenant"`
	Epoch     int    `json:"epoch"`
	IP        string `json:"ip"`
	Block     string `json:"block"`
	Mapped    bool   `json:"mapped"`
	Site      string `json:"site,omitempty"`
	SiteIndex int    `json:"site_index"`
	RTTNS     int64  `json:"rtt_ns,omitempty"`
	ASN       uint32 `json:"asn,omitempty"`
	AS        string `json:"as,omitempty"`
	Country   string `json:"country,omitempty"`
}

func (sv *Server) handleLookup(w http.ResponseWriter, r *http.Request, t *Tenant) {
	ipStr := r.URL.Query().Get("ip")
	if ipStr == "" {
		writeErr(w, http.StatusBadRequest, "missing ip query parameter")
		return
	}
	a, err := ipv4.ParseAddr(ipStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad ip %q: %v", ipStr, err)
		return
	}
	res, ok := t.Lookup(a)
	resp := lookupResponse{
		Tenant:    t.Name,
		Epoch:     res.Epoch,
		IP:        a.String(),
		Block:     a.Block().String(),
		Mapped:    ok,
		SiteIndex: res.Site,
	}
	if ok {
		resp.Site = res.SiteCode
		resp.RTTNS = int64(res.RTT)
		resp.ASN = res.ASN
		resp.AS = res.ASName
		resp.Country = res.Country
	}
	writeJSON(w, http.StatusOK, resp)
}

type siteEntry struct {
	Code        string  `json:"code"`
	Blocks      int     `json:"blocks"`
	BlockShare  float64 `json:"block_share"`
	LoadShare   float64 `json:"load_share"`
	LoadQPD     float64 `json:"load_qpd,omitempty"`
	CapacityQPD float64 `json:"capacity_qpd,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
}

type sitesResponse struct {
	Tenant   string      `json:"tenant"`
	Epoch    int         `json:"epoch"`
	Swept    bool        `json:"swept"`
	TotalQPD float64     `json:"total_qpd,omitempty"`
	Sites    []siteEntry `json:"sites"`
}

func (sv *Server) handleSites(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	sn := t.Current()
	if sn == nil {
		writeErr(w, http.StatusServiceUnavailable, "tenant %s has no snapshot yet", t.Name)
		return
	}
	resp := sitesResponse{Tenant: t.Name, Epoch: sn.Epoch, Swept: sn.Swept, TotalQPD: sn.TotalQPD}
	for _, sl := range sn.Sites {
		resp.Sites = append(resp.Sites, siteEntry{
			Code:        sl.Code,
			Blocks:      sl.Blocks,
			BlockShare:  sl.BlockShare,
			LoadShare:   sl.LoadShare,
			LoadQPD:     sl.LoadQPD,
			CapacityQPD: sl.CapacityQPD,
			Utilization: sl.Utilization,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type driftEvent struct {
	Epoch     int     `json:"epoch"`
	Type      string  `json:"type"`
	Cause     string  `json:"cause"`
	Site      int     `json:"site"`
	Blocks    int     `json:"blocks"`
	Magnitude float64 `json:"magnitude"`
}

// predictInfo reports the tenant's predicted-vs-observed tally when the
// probe-free fast path is on: hits are re-observed changes the control
// plane called in advance, misses drift it did not see coming
// (out-of-band perturbation, surfaced as predict-miss events), and
// skipped_strata the cumulative strata that went entirely unprobed on
// the exactness contract's word.
type predictInfo struct {
	Hits          int `json:"hits"`
	Misses        int `json:"misses"`
	SkippedStrata int `json:"skipped_strata"`
}

type driftResponse struct {
	Tenant  string       `json:"tenant"`
	Since   int          `json:"since"`
	Events  []driftEvent `json:"events"`
	Predict *predictInfo `json:"predict,omitempty"`
}

func (sv *Server) handleDrift(w http.ResponseWriter, r *http.Request, t *Tenant) {
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since %q: %v", s, err)
			return
		}
		if n < 0 {
			// A negative epoch is always a caller bug (epochs start at 0);
			// silently returning the whole log would hide it.
			writeErr(w, http.StatusBadRequest, "bad since %d: must be >= 0", n)
			return
		}
		since = n
	}
	resp := driftResponse{Tenant: t.Name, Since: since, Events: []driftEvent{}}
	if hits, misses, skipped, on := t.PredictStats(); on {
		resp.Predict = &predictInfo{Hits: hits, Misses: misses, SkippedStrata: skipped}
	}
	for _, ev := range t.Events(since) {
		resp.Events = append(resp.Events, driftEvent{
			Epoch:     ev.Epoch,
			Type:      ev.Type.String(),
			Cause:     ev.Cause.String(),
			Site:      ev.Site,
			Blocks:    ev.Blocks,
			Magnitude: ev.Magnitude,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type advanceResponse struct {
	Tenant string `json:"tenant"`
	Epoch  int    `json:"epoch"`
	Swept  bool   `json:"swept"`
	Probes int    `json:"probes"`
	Blocks int    `json:"blocks"`
	Events int    `json:"events"`
}

func (sv *Server) advance(w http.ResponseWriter, t *Tenant, full bool) {
	er, err := t.Advance(full)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "epoch step: %v", err)
		return
	}
	sn := t.Current()
	writeJSON(w, http.StatusOK, advanceResponse{
		Tenant: t.Name,
		Epoch:  er.Epoch,
		Swept:  sn.Swept,
		Probes: er.Probes,
		Blocks: sn.Len(),
		Events: len(er.Events),
	})
}

// handleSweep forces the next epoch to re-probe the full hitlist — the
// operator's "re-map everything now" trigger — and runs it immediately.
func (sv *Server) handleSweep(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	sv.advance(w, t, true)
}

// handleAdvance steps one regular epoch on demand — the test hook that
// substitutes for the real-time ticker when EpochInterval is 0.
func (sv *Server) handleAdvance(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	sv.advance(w, t, false)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
