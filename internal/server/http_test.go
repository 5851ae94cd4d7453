package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"verfploeter/internal/monitor"
	"verfploeter/internal/obsv"
	"verfploeter/internal/scenario"
	"verfploeter/internal/server"
	"verfploeter/internal/topology"
)

// newTestServer builds a one-tenant server (b-root tiny, seed 7, query
// log attached, capacity 2x daily volume) in manual-advance mode, with
// the baseline epoch measured.
func newTestServer(t *testing.T) (*server.Server, *server.Tenant) {
	t.Helper()
	scn := scenario.BRoot(topology.SizeTiny, 7)
	log := scn.RootLog()
	capacity := make([]float64, len(scn.Sites))
	for i := range capacity {
		capacity[i] = 2 * log.TotalQPD()
	}
	tn, err := server.NewTenant(scn, server.TenantConfig{
		Name:     "t1",
		Monitor:  monitor.Config{LoadLog: log},
		Capacity: capacity,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(server.Config{})
	if err := sv.AddTenant(tn); err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Shutdown)
	return sv, tn
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	sv, tn := newTestServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var health struct {
		Status  string         `json:"status"`
		Tenants int            `json:"tenants"`
		Epochs  map[string]int `json:"epochs"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Tenants != 1 || health.Epochs["t1"] != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	// A mapped address answers with a real site and its annotations.
	sn := tn.Current()
	addr := sn.Blocks()[0].First()
	var lk struct {
		Tenant  string `json:"tenant"`
		Epoch   int    `json:"epoch"`
		Mapped  bool   `json:"mapped"`
		Site    string `json:"site"`
		Country string `json:"country"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/tenants/t1/lookup?ip=%s", ts.URL, addr), http.StatusOK, &lk)
	if !lk.Mapped || lk.Tenant != "t1" || lk.Epoch != 0 || lk.Site == "" {
		t.Fatalf("lookup = %+v", lk)
	}
	want, _ := sn.Lookup(addr)
	if lk.Site != want.SiteCode || lk.Country != want.Country {
		t.Fatalf("lookup = %+v, want site %s country %s", lk, want.SiteCode, want.Country)
	}

	// Error paths: bad IP, missing IP, unknown tenant.
	getJSON(t, ts.URL+"/v1/tenants/t1/lookup?ip=not-an-ip", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/tenants/t1/lookup", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/tenants/nope/lookup?ip=1.2.3.4", http.StatusNotFound, nil)

	// Sites: every site listed, shares summing to ~1, utilization
	// against the declared 2x capacity.
	var sites struct {
		Epoch    int     `json:"epoch"`
		TotalQPD float64 `json:"total_qpd"`
		Sites    []struct {
			Code        string  `json:"code"`
			Blocks      int     `json:"blocks"`
			LoadShare   float64 `json:"load_share"`
			Utilization float64 `json:"utilization"`
		} `json:"sites"`
	}
	getJSON(t, ts.URL+"/v1/tenants/t1/sites", http.StatusOK, &sites)
	if len(sites.Sites) != len(sn.Sites) || sites.TotalQPD <= 0 {
		t.Fatalf("sites = %+v", sites)
	}
	sum := 0.0
	for _, s := range sites.Sites {
		sum += s.LoadShare
		if s.Utilization < 0 || s.Utilization > 0.5+1e-9 {
			t.Fatalf("site %s utilization %v out of range for 2x capacity", s.Code, s.Utilization)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("load shares sum to %v", sum)
	}

	// POST advance steps an epoch; drift?since filters events by epoch.
	var adv struct {
		Epoch  int  `json:"epoch"`
		Swept  bool `json:"swept"`
		Probes int  `json:"probes"`
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/t1/advance", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&adv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if adv.Epoch != 1 || adv.Swept || adv.Probes <= 0 {
		t.Fatalf("advance = %+v", adv)
	}
	var drift struct {
		Since  int `json:"since"`
		Events []struct {
			Epoch int    `json:"epoch"`
			Type  string `json:"type"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/v1/tenants/t1/drift?since=99", http.StatusOK, &drift)
	if drift.Since != 99 || len(drift.Events) != 0 {
		t.Fatalf("drift since=99 = %+v", drift)
	}
	getJSON(t, ts.URL+"/v1/tenants/t1/drift?since=bogus", http.StatusBadRequest, nil)
	// A negative since is a caller bug too — epochs start at 0 — and must
	// 400 rather than silently dump the whole log.
	getJSON(t, ts.URL+"/v1/tenants/t1/drift?since=-1", http.StatusBadRequest, nil)

	// GET on a POST-only route must not match.
	getJSON(t, ts.URL+"/v1/tenants/t1/advance", http.StatusMethodNotAllowed, nil)

	// The tenant listing reflects the advanced epoch.
	var list []struct {
		Name  string `json:"name"`
		Epoch int    `json:"epoch"`
	}
	getJSON(t, ts.URL+"/v1/tenants", http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "t1" || list[0].Epoch != 1 {
		t.Fatalf("tenants = %+v", list)
	}
}

// TestSweepForcesFullProbe checks POST .../sweep on a sampling tenant:
// the forced epoch re-probes far more than the sampled cadence and the
// snapshot is flagged swept.
func TestSweepForcesFullProbe(t *testing.T) {
	scn := scenario.BRoot(topology.SizeTiny, 7)
	tn, err := server.NewTenant(scn, server.TenantConfig{
		Name:    "s",
		Monitor: monitor.Config{Sample: 0.1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(server.Config{})
	if err := sv.AddTenant(tn); err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	sampled, err := tn.Advance(false)
	if err != nil {
		t.Fatal(err)
	}
	var swept struct {
		Epoch  int  `json:"epoch"`
		Swept  bool `json:"swept"`
		Probes int  `json:"probes"`
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/s/sweep", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&swept); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !swept.Swept || swept.Epoch != 2 {
		t.Fatalf("sweep = %+v", swept)
	}
	if swept.Probes <= sampled.Probes {
		t.Fatalf("forced sweep sent %d probes, sampled epoch %d — sweep should re-probe more",
			swept.Probes, sampled.Probes)
	}
}

// TestTickerAdvancesEpochs covers the real-time cadence: with a short
// EpochInterval the server advances tenants without any API calls.
func TestTickerAdvancesEpochs(t *testing.T) {
	scn := scenario.BRoot(topology.SizeTiny, 7)
	tn, err := server.NewTenant(scn, server.TenantConfig{Name: "tick"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(server.Config{EpochInterval: 5 * time.Millisecond})
	if err := sv.AddTenant(tn); err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tn.Epoch() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sv.Shutdown()
	if tn.Epoch() < 2 {
		t.Fatalf("ticker advanced to epoch %d, want >= 2", tn.Epoch())
	}
	// After Shutdown the epoch loop is quiescent: the tenant stays
	// readable and stops advancing.
	e := tn.Epoch()
	time.Sleep(20 * time.Millisecond)
	if tn.Epoch() != e {
		t.Fatal("epochs still advancing after Shutdown")
	}
}

// TestTickerCountsEpochErrors: an epoch the ticker cannot advance is
// counted in server_epoch_errors instead of vanishing. The tenant's
// scenario turns invalid (negative Retries) after its baseline, so
// every ticked epoch fails its sweep.
func TestTickerCountsEpochErrors(t *testing.T) {
	scn := scenario.BRoot(topology.SizeTiny, 7)
	scn.OnEpoch(func(s *scenario.Scenario, e int) {
		if e > 0 {
			s.Retries = -1
		}
	})
	obs := obsv.New()
	tn, err := server.NewTenant(scn, server.TenantConfig{Name: "broken"}, obs)
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(server.Config{Obs: obs, EpochInterval: 10 * time.Millisecond})
	if err := sv.AddTenant(tn); err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	errs := obs.Counter("server_epoch_errors", "")
	deadline := time.Now().Add(10 * time.Second)
	for errs.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sv.Shutdown()
	if errs.Value() < 1 {
		t.Fatalf("server_epoch_errors = %d after failing epochs, want >= 1", errs.Value())
	}
	if tn.Epoch() != 0 {
		t.Errorf("tenant published epoch %d, want the baseline only", tn.Epoch())
	}
}
