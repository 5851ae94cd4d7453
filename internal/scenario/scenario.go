// Package scenario assembles complete deployments: a generated Internet,
// the anycast service's host networks wired into it, BGP announcements,
// the data plane, hitlist, geolocation, and DNS front ends. The presets
// mirror the paper's measurement targets (§4, Table 3): B-Root's two-site
// deployment, the nine-site Tangled testbed with its documented routing
// quirks, and the .nl-style regional service used for load calibration.
package scenario

import (
	"fmt"
	"strings"

	"verfploeter/internal/bgp"
	"verfploeter/internal/dataplane"
	"verfploeter/internal/dnswire"
	"verfploeter/internal/faults"
	"verfploeter/internal/geo"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/parallel"
	"verfploeter/internal/querylog"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
	"verfploeter/internal/verfploeter"
)

// Site is one anycast site of the scenario's service.
type Site struct {
	Code        string // short site code answered via hostname.bind
	Host        string // hosting organization, for reports
	UpstreamASN uint32
	Lat, Lon    float64
	// BasePrepend models permanently weak connectivity (Tangled's
	// Tokyo site rarely attracts traffic); experiment prepends add to
	// it.
	BasePrepend int
}

// Scenario is a fully wired deployment ready to measure.
type Scenario struct {
	Name  string
	Seed  uint64
	Top   *topology.Topology
	Sites []Site

	Prefix      ipv4.Prefix // the anycast service prefix
	MeasureAddr ipv4.Addr   // designated measurement address (§3.1)
	// TestPfx is the parallel test prefix (§3.1); TestMeasureAddr the
	// measurement address inside it.
	TestPfx         ipv4.Prefix
	TestMeasureAddr ipv4.Addr

	Clock   *vclock.Clock
	Net     *dataplane.Net
	Table   *bgp.Table
	Asg     *bgp.Assignment
	Hitlist *hitlist.Hitlist
	GeoDB   *geo.DB

	// Workers bounds the parallel engine for this deployment's
	// measurements and campaigns (<= 0 means one worker per CPU).
	// Results are identical for every value.
	Workers int

	// Retries is the per-target retransmission budget applied to every
	// measurement on this deployment (see verfploeter.Config.Retries).
	// Forks inherit it, so campaigns retry consistently across rounds.
	// Zero keeps the historic single-shot sweep.
	Retries int

	// StatsSink, when set, observes the Stats of every successful sweep
	// run through this deployment (Measure, MeasureTest, MeasureSubset),
	// including sweeps on Forks taken afterwards. Campaigns run sweeps
	// concurrently, so the sink must be safe for concurrent calls.
	StatsSink func(verfploeter.Stats)

	// Obs, when set, receives instrumentation (counters, phase spans)
	// from every sweep run through this deployment and its Forks. It
	// never influences results — see internal/obsv.
	Obs *obsv.Registry

	prepends     []int
	down         []bool // down[i]: site i's announcement is withdrawn
	routingEpoch uint64
	epochHooks   []func(*Scenario, int)
}

// AnycastPrefix is the service prefix all presets announce. The covering
// /23's other half is the test prefix of §3.1 ("the non-operational
// portion of the /23 could serve as the test prefix").
const (
	AnycastPrefix = "198.18.0.0/24"
	TestPrefix    = "198.18.1.0/24"
)

// GeoMissRate approximates the paper's 678 un-geolocatable blocks out of
// 3.79M responding.
const GeoMissRate = 0.0005

// build wires the common machinery once the topology and sites exist.
func build(name string, seed uint64, top *topology.Topology, sites []Site) *Scenario {
	s := &Scenario{
		Name: name, Seed: seed, Top: top, Sites: sites,
		Prefix:          ipv4.MustParsePrefix(AnycastPrefix),
		MeasureAddr:     ipv4.MustParseAddr("198.18.0.1"),
		TestPfx:         ipv4.MustParsePrefix(TestPrefix),
		TestMeasureAddr: ipv4.MustParseAddr("198.18.1.1"),
		Clock:           vclock.New(),
		Hitlist:         hitlist.Build(top, seed),
		GeoDB:           geo.Build(top, GeoMissRate, seed),
		prepends:        make([]int, len(sites)),
	}
	s.Net = dataplane.New(dataplane.Config{
		Top: top, Clock: s.Clock, Seed: seed,
		Impair:        dataplane.DefaultImpairments(),
		AnycastPrefix: s.Prefix,
		TestPrefix:    s.TestPfx,
	})
	s.Reannounce(nil)
	for i := range sites {
		i := i
		s.Net.AttachSite(i, nil, s.dnsHandler(i))
	}
	return s
}

// Fork returns an independent deployment sharing this scenario's
// immutable substrate — topology, hitlist, geolocation database, BGP
// table, and current assignment — under a fresh virtual clock and data
// plane. Forks are how concurrent measurement works: each goroutine
// measures on its own fork, and mutating routing on a fork (Reannounce,
// AnnounceTest) recomputes the fork's table without ever touching the
// parent. Forking is cheap; the heavy state is shared read-only.
func (s *Scenario) Fork() *Scenario {
	f := *s
	f.Clock = vclock.New()
	f.Net = s.Net.Fork(f.Clock)
	f.prepends = append([]int(nil), s.prepends...)
	f.down = append([]bool(nil), s.down...)
	f.epochHooks = append([]func(*Scenario, int){}, s.epochHooks...)
	for i := range f.Sites {
		f.Net.SetDNS(i, f.dnsHandler(i))
	}
	return &f
}

// Reannounce recomputes routing with the given per-site extra prepends
// (nil = all zero). This is the traffic-engineering knob of §6.1.
func (s *Scenario) Reannounce(extraPrepend []int) {
	s.ReannounceEpoch(extraPrepend, 0)
}

// ReannounceEpoch recomputes routing for a later routing epoch: same
// announcements, but the Internet's equal-cost tie-breaks have drifted
// (§5.5's month-scale catchment shift). Epoch 0 is the present. Every
// site is (re-)announced; use ReannounceFull to withdraw sites.
func (s *Scenario) ReannounceEpoch(extraPrepend []int, epoch uint64) {
	s.ReannounceFull(extraPrepend, nil, epoch)
}

// ReannounceFull is the complete routing knob: per-site extra prepends
// (nil = all zero), a withdrawal mask (down[i] true withdraws site i's
// announcement entirely — the site-failure case, stronger than any
// prepend), and the routing epoch whose tie-breaks apply. nil down
// announces every site. At least one site must stay announced.
func (s *Scenario) ReannounceFull(extraPrepend []int, down []bool, epoch uint64) {
	if extraPrepend == nil {
		extraPrepend = make([]int, len(s.Sites))
	}
	if len(extraPrepend) != len(s.Sites) {
		panic(fmt.Sprintf("scenario: %d prepends for %d sites", len(extraPrepend), len(s.Sites)))
	}
	if down != nil && len(down) != len(s.Sites) {
		panic(fmt.Sprintf("scenario: %d down flags for %d sites", len(down), len(s.Sites)))
	}
	copy(s.prepends, extraPrepend)
	s.down = make([]bool, len(s.Sites))
	copy(s.down, down)
	s.routingEpoch = epoch
	anns := s.AnnouncementsFor(extraPrepend, s.down)
	s.Table, s.Asg = bgp.ComputeEpochCached(s.Top, anns, epoch)
	s.Net.SetAssignment(s.Asg)
}

// AnnouncementsFor translates a candidate routing configuration — per-site
// extra prepends (nil = all zero) and a withdrawal mask (nil = all up) —
// into the announcement set the deployment would emit, without changing
// any state. It panics if every site is withdrawn: an anycast service
// must announce from somewhere.
func (s *Scenario) AnnouncementsFor(extraPrepend []int, down []bool) []bgp.Announcement {
	if extraPrepend == nil {
		extraPrepend = make([]int, len(s.Sites))
	}
	if len(extraPrepend) != len(s.Sites) {
		panic(fmt.Sprintf("scenario: %d prepends for %d sites", len(extraPrepend), len(s.Sites)))
	}
	if down != nil && len(down) != len(s.Sites) {
		panic(fmt.Sprintf("scenario: %d down flags for %d sites", len(down), len(s.Sites)))
	}
	anns := make([]bgp.Announcement, 0, len(s.Sites))
	for i, site := range s.Sites {
		if down != nil && down[i] {
			continue
		}
		anns = append(anns, bgp.Announcement{
			Site: i, UpstreamASN: site.UpstreamASN,
			Lat: site.Lat, Lon: site.Lon,
			Prepend: site.BasePrepend + extraPrepend[i],
		})
	}
	if len(anns) == 0 {
		panic("scenario: every site withdrawn — nothing announced")
	}
	return anns
}

// PredictRouting evaluates a candidate configuration from the control
// plane alone: the converged table and block→site assignment the
// deployment would have under the given prepends, withdrawals, and epoch.
// Nothing is deployed — production routing, the data plane, and the
// recorded configuration are untouched. Repeated predictions share the
// route cache, so a sweep of neighboring candidates rides the delta path.
func (s *Scenario) PredictRouting(extraPrepend []int, down []bool, epoch uint64) (*bgp.Table, *bgp.Assignment) {
	return bgp.ComputeEpochCached(s.Top, s.AnnouncementsFor(extraPrepend, down), epoch)
}

// Prepends returns the current extra-prepend configuration.
func (s *Scenario) Prepends() []int { return append([]int(nil), s.prepends...) }

// RoutingEpoch returns the epoch of the last reannouncement.
func (s *Scenario) RoutingEpoch() uint64 { return s.routingEpoch }

// DownSites returns the current withdrawal mask (all false when every
// site is announced).
func (s *Scenario) DownSites() []bool {
	out := make([]bool, len(s.Sites))
	copy(out, s.down)
	return out
}

// OnEpoch registers a hook that BeginEpoch invokes at the start of every
// sweep epoch, before measurement. Hooks model the world changing
// underneath the operator — peers drift their tie-breaks, sites black
// out — so drift detection can be exercised against events the operator
// never scheduled. Hooks run in registration order; Forks taken after
// registration inherit them.
func (s *Scenario) OnEpoch(h func(*Scenario, int)) {
	s.epochHooks = append(s.epochHooks, h)
}

// BeginEpoch runs the registered epoch hooks for epoch e. The monitor
// calls it once per sweep epoch; standalone campaigns may drive it
// directly.
func (s *Scenario) BeginEpoch(e int) {
	for _, h := range s.epochHooks {
		h(s, e)
	}
}

// SetFaults installs a fault profile on the deployment's data plane
// (zero Profile removes it). Subsequent measurements — and every Fork
// taken afterwards — run under the profile; the assignment, hitlist,
// and routing state are untouched, so the same deployment can be
// measured fault-free and faulty back to back.
func (s *Scenario) SetFaults(p faults.Profile) { s.Net.SetFaults(p) }

// Faults returns the installed fault profile (zero when none).
func (s *Scenario) Faults() faults.Profile { return s.Net.Faults() }

// AnnounceTest announces the test prefix with a candidate configuration
// (§3.1's pre-deployment planning: "deploy and announce a test prefix
// that parallels the anycast service, then measure its routes and
// catchments" — the test prefix encounters the same policies as
// production, so its catchment predicts the change). Production routing
// is untouched.
func (s *Scenario) AnnounceTest(extraPrepend []int, epoch uint64) {
	if extraPrepend == nil {
		extraPrepend = make([]int, len(s.Sites))
	}
	if len(extraPrepend) != len(s.Sites) {
		panic(fmt.Sprintf("scenario: %d test prepends for %d sites", len(extraPrepend), len(s.Sites)))
	}
	anns := make([]bgp.Announcement, len(s.Sites))
	for i, site := range s.Sites {
		anns[i] = bgp.Announcement{
			Site: i, UpstreamASN: site.UpstreamASN,
			Lat: site.Lat, Lon: site.Lon,
			Prepend: site.BasePrepend + extraPrepend[i],
		}
	}
	_, asg := bgp.ComputeEpochCached(s.Top, anns, epoch)
	s.Net.SetTestAssignment(asg)
}

// MeasureTest runs a Verfploeter round sourced from the test prefix,
// mapping the candidate configuration's catchment without touching
// production. AnnounceTest must have been called.
func (s *Scenario) MeasureTest(roundID uint16) (*verfploeter.Catchment, verfploeter.Stats, error) {
	return s.runSweep(verfploeter.Config{
		Hitlist: s.Hitlist, Net: s.Net,
		NSite: len(s.Sites), OriginSite: 0, SourceAddr: s.TestMeasureAddr,
		RoundID: roundID, Seed: s.Seed ^ uint64(roundID)<<32 ^ 0x7e57,
		Workers: s.Workers,
		Retries: s.Retries,
	})
}

// runSweep executes one configured round and feeds the stats sink on
// success. The instrumentation registry is attached here so every sweep
// entry point (Measure, MeasureTest, MeasureSubset) reports to it.
func (s *Scenario) runSweep(cfg verfploeter.Config) (*verfploeter.Catchment, verfploeter.Stats, error) {
	cfg.Obs = s.Obs
	c, st, err := verfploeter.Run(cfg)
	if err == nil && s.StatsSink != nil {
		s.StatsSink(st)
	}
	return c, st, err
}

// SiteByName implements atlas.SiteNamer over the site codes.
func (s *Scenario) SiteByName(txt string) (int, bool) {
	for i, site := range s.Sites {
		if strings.EqualFold(site.Code, txt) {
			return i, true
		}
	}
	return 0, false
}

// MustSite returns the index of a site code, panicking on unknown codes —
// experiment wiring errors should fail fast.
func (s *Scenario) MustSite(code string) int {
	i, ok := s.SiteByName(code)
	if !ok {
		panic(fmt.Sprintf("scenario %s: no site %q", s.Name, code))
	}
	return i
}

// SiteCodes returns the per-site short codes.
func (s *Scenario) SiteCodes() []string {
	out := make([]string, len(s.Sites))
	for i, site := range s.Sites {
		out[i] = site.Code
	}
	return out
}

// SiteLetters returns one distinct letter per site for map rendering.
func (s *Scenario) SiteLetters() []rune {
	out := make([]rune, len(s.Sites))
	for i, site := range s.Sites {
		out[i] = rune(strings.ToUpper(site.Code)[0])
		for j := 0; j < i; j++ {
			if out[j] == out[i] {
				// Collide: fall back to the site's index digit.
				out[i] = rune('0' + i%10)
			}
		}
	}
	return out
}

// dnsHandler answers the site's DNS front end: CHAOS TXT hostname.bind
// returns the site code (what Atlas measures); everything else gets a
// minimal authoritative answer or NXDOMAIN.
func (s *Scenario) dnsHandler(site int) func([]byte) []byte {
	return func(raw []byte) []byte {
		q, err := dnswire.Unmarshal(raw)
		if err != nil {
			return nil
		}
		var resp dnswire.Message
		switch {
		case q.Question.Class == dnswire.ClassCH &&
			q.Question.Type == dnswire.TypeTXT &&
			strings.EqualFold(q.Question.Name, dnswire.HostnameBind):
			resp = q.Respond(dnswire.RCodeNoError)
			resp.AnswerTXT(s.Sites[site].Code)
		case q.Question.Class == dnswire.ClassIN && q.Question.Type == dnswire.TypeA:
			if strings.HasPrefix(q.Question.Name, "nx.") {
				resp = q.Respond(dnswire.RCodeNXDomain)
			} else {
				resp = q.Respond(dnswire.RCodeNoError)
				resp.Answers = append(resp.Answers, dnswire.RR{
					Name: q.Question.Name, Type: dnswire.TypeA,
					Class: dnswire.ClassIN, TTL: 3600,
					Data: []byte{198, 18, 0, 53},
				})
			}
		default:
			resp = q.Respond(dnswire.RCodeRefused)
		}
		out, err := resp.Marshal()
		if err != nil {
			return nil
		}
		return out
	}
}

// Measure runs one Verfploeter round from origin site 0 and returns the
// catchment.
func (s *Scenario) Measure(roundID uint16) (*verfploeter.Catchment, verfploeter.Stats, error) {
	return s.MeasureSubset(roundID, nil)
}

// MeasureSubset runs one Verfploeter round restricted to the given
// blocks (nil = the full hitlist): the monitor's partial re-probe. The
// sweep keeps the full round's probe order, chunking, and sequence
// numbers (see verfploeter.Config.Subset), so each probed block's
// observation is identical to what Measure would record for the same
// roundID.
func (s *Scenario) MeasureSubset(roundID uint16, subset *ipv4.BlockSet) (*verfploeter.Catchment, verfploeter.Stats, error) {
	return s.runSweep(verfploeter.Config{
		Hitlist: s.Hitlist, Net: s.Net,
		NSite: len(s.Sites), OriginSite: 0, SourceAddr: s.MeasureAddr,
		RoundID: roundID, Seed: s.Seed ^ uint64(roundID)<<32,
		Workers: s.Workers,
		Retries: s.Retries,
		Subset:  subset,
	})
}

// MeasureRounds performs n rounds, advancing the data plane's round
// counter (catchment flips, responsiveness churn) between them — the
// §6.3 stability campaign. Rounds are independent given the seed (every
// impairment is a deterministic hash of seed, block, and round), so they
// run concurrently on per-round forks; results are identical to the
// sequential back-to-back campaign for any Workers value.
//
// When a round fails, MeasureRounds returns the completed prefix of
// rounds before the first failure alongside the error, so a campaign
// interrupted mid-way — an operational reality on real testbeds — still
// yields a partial report with the failure recorded rather than
// discarding every finished round.
func (s *Scenario) MeasureRounds(n int, firstRoundID uint16) ([]*verfploeter.Catchment, error) {
	out := make([]*verfploeter.Catchment, n)
	errs := make([]error, n)
	w := parallel.Workers(s.Workers)
	inner := w / n // spread leftover pool width inside each round
	if inner < 1 {
		inner = 1
	}
	parallel.ForEach(s.Workers, n, func(r int) {
		f := s.Fork()
		f.Workers = inner
		f.Net.SetRound(uint32(r))
		c, _, err := f.Measure(firstRoundID + uint16(r))
		if err != nil {
			errs[r] = fmt.Errorf("round %d: %w", r, err)
			return
		}
		out[r] = c
	})
	for r, err := range errs {
		if err != nil {
			return out[:r], err
		}
	}
	// Leave the parent where the sequential campaign would have: on the
	// final round.
	s.Net.SetRound(uint32(n - 1))
	return out, nil
}

// RootLog synthesizes the service's day of root-style query traffic.
func (s *Scenario) RootLog() *querylog.Log {
	return querylog.Synthesize(s.Top, querylog.RootProfile(), s.Seed)
}

// --- topology helpers for preset wiring ---

// firstTier1 returns the ASN of the i-th tier-1.
func firstTier1(top *topology.Topology, i int) uint32 {
	n := 0
	for idx := range top.ASes {
		if top.ASes[idx].Class == topology.Tier1 {
			if n == i {
				return top.ASes[idx].ASN
			}
			n++
		}
	}
	panic("scenario: not enough tier-1 ASes")
}

// transitsIn returns transit ASNs whose primary country matches any of
// the given codes (in topology order).
func transitsIn(top *topology.Topology, codes ...string) []uint32 {
	want := map[string]bool{}
	for _, c := range codes {
		want[c] = true
	}
	var out []uint32
	for idx := range top.ASes {
		a := &top.ASes[idx]
		if a.Class == topology.Transit && want[topology.Countries[a.CountryIdx].Code] {
			out = append(out, a.ASN)
		}
	}
	return out
}

// transitsOnContinent returns transit ASNs on a continent.
func transitsOnContinent(top *topology.Topology, continent string) []uint32 {
	var out []uint32
	for idx := range top.ASes {
		a := &top.ASes[idx]
		if a.Class == topology.Transit && topology.Countries[a.CountryIdx].Continent == continent {
			out = append(out, a.ASN)
		}
	}
	return out
}

func popAt(country string, lat, lon float64) topology.PoP {
	ci := topology.CountryIndex(country)
	if ci < 0 {
		panic("scenario: unknown country " + country)
	}
	return topology.PoP{CountryIdx: ci, Lat: lat, Lon: lon}
}
