// Package dataplane simulates packet delivery between the anycast service
// and the rest of the (synthetic) Internet.
//
// The control plane — which site a block's traffic reaches — comes from a
// bgp.Assignment. This package adds everything the paper's data cleaning
// has to cope with (§4 "Data cleaning"):
//
//   - unresponsive targets: only ~55% of probed blocks answer;
//   - duplicate replies: "systems replying multiple times to a single
//     echo request, in some cases up to thousands of times", ~2% of
//     replies;
//   - aliased replies from a different address than the one probed;
//   - late replies arriving after the measurement cutoff;
//   - geographic round-trip delays, so reply timing is meaningful.
//
// On top of those baseline impairments, an optional fault profile
// (internal/faults) injects operational failures at this boundary —
// probe/reply loss, per-/24 ICMP rate limiting, unresponsive-block sets,
// transient site blackouts — so every upper layer (probe sweep, reply
// fold, assignment, experiments) sees realistic loss without any code
// changes of its own.
//
// All impairments and faults are deterministic functions of
// (seed, block, round[, seq]), so identical runs produce identical
// packet streams.
package dataplane

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"verfploeter/internal/bgp"
	"verfploeter/internal/faults"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/packet"
	"verfploeter/internal/topology"
	"verfploeter/internal/vclock"
)

// Impairments tunes the data plane's misbehavior.
type Impairments struct {
	DupFrac      float64       // fraction of replying blocks that duplicate
	DupMax       int           // max duplicates from one pathological host
	AliasFrac    float64       // fraction replying from a different address
	CrossAlias   float64       // of the aliased, fraction replying from another block
	LateFrac     float64       // fraction of replies delayed past any cutoff
	LateDelay    time.Duration // how late those replies are
	BaseRTT      time.Duration // fixed per-reply latency floor
	RTTPerDegree time.Duration // added latency per degree-unit of distance
}

// DefaultImpairments mirrors the magnitudes the paper reports (~2%
// duplicates; rare but extreme repeaters; a sliver of late traffic).
func DefaultImpairments() Impairments {
	return Impairments{
		DupFrac:      0.02,
		DupMax:       200,
		AliasFrac:    0.01,
		CrossAlias:   0.3,
		LateFrac:     0.0015,
		LateDelay:    16 * time.Minute,
		BaseRTT:      8 * time.Millisecond,
		RTTPerDegree: 1200 * time.Microsecond,
	}
}

// Config assembles a Net.
type Config struct {
	Top    *topology.Topology
	Clock  *vclock.Clock
	Seed   uint64
	Impair Impairments
	// AnycastPrefix is the service prefix; probe sources and anycast
	// query destinations must fall inside it.
	AnycastPrefix ipv4.Prefix
	// TestPrefix is the parallel measurement prefix of §3.1: operators
	// announce the anycast /24 plus a covering /23, and "the
	// non-operational portion of the /23 could serve as the test
	// prefix". Probes sourced from it route by the test assignment,
	// leaving production routing untouched. Zero value disables it.
	TestPrefix ipv4.Prefix
	// Faults layers operational failures — probe/reply loss, per-/24
	// ICMP rate limiting, unresponsive-block sets, transient site
	// blackouts — on top of the baseline impairments. The zero value
	// (and any all-zero-rate profile) leaves the packet stream
	// byte-identical to a fault-free run. Replaceable later via
	// Net.SetFaults.
	Faults faults.Profile
}

// Stats counts data-plane events, for tests and reports. The Fault*
// counters stay zero unless a fault profile is installed, so existing
// consumers see unchanged numbers on the fault-free path.
type Stats struct {
	ProbesSent     uint64
	BadPackets     uint64
	UnknownBlocks  uint64
	Unresponsive   uint64
	Replies        uint64
	Duplicates     uint64
	Aliased        uint64
	Late           uint64
	QueriesRouted  uint64
	QueriesDropped uint64

	// Injected-fault accounting (see internal/faults).
	FaultProbeLost   uint64 // probes dropped on the forward path
	FaultReplyLost   uint64 // replies dropped on the return path
	FaultRateLimited uint64 // probes past a /24's per-round ICMP budget
	FaultSilenced    uint64 // probes into the unresponsive-block set
	FaultBlackouts   uint64 // replies/queries lost to a site blackout
}

// Add accumulates another snapshot into s — how a send applies its
// Outcome's deltas, and how the probe sweep sums them into round totals.
func (s *Stats) Add(o Stats) {
	s.ProbesSent += o.ProbesSent
	s.BadPackets += o.BadPackets
	s.UnknownBlocks += o.UnknownBlocks
	s.Unresponsive += o.Unresponsive
	s.Replies += o.Replies
	s.Duplicates += o.Duplicates
	s.Aliased += o.Aliased
	s.Late += o.Late
	s.QueriesRouted += o.QueriesRouted
	s.QueriesDropped += o.QueriesDropped
	s.FaultProbeLost += o.FaultProbeLost
	s.FaultReplyLost += o.FaultReplyLost
	s.FaultRateLimited += o.FaultRateLimited
	s.FaultSilenced += o.FaultSilenced
	s.FaultBlackouts += o.FaultBlackouts
}

// PublishObs adds the snapshot's counters to an instrumentation
// registry (see internal/obsv). Counters are cumulative across calls;
// a nil registry is a no-op.
func (s Stats) PublishObs(r *obsv.Registry) {
	if r == nil {
		return
	}
	r.Counter("dataplane_probes_sent", "probes the data plane routed").Add(s.ProbesSent)
	r.Counter("dataplane_replies", "echo replies the data plane delivered").Add(s.Replies)
	r.Counter("dataplane_unresponsive", "probes into blocks that never answer").Add(s.Unresponsive)
	r.Counter("dataplane_aliased", "replies sourced from a neighboring block").Add(s.Aliased)
	r.Counter("dataplane_duplicates", "replies duplicated in flight").Add(s.Duplicates)
	r.Counter("fault_probe_lost", "probes dropped by the fault layer's forward-path loss").Add(s.FaultProbeLost)
	r.Counter("fault_reply_lost", "replies dropped by the fault layer's return-path loss").Add(s.FaultReplyLost)
	r.Counter("fault_rate_limited", "probes past a /24's per-round ICMP budget").Add(s.FaultRateLimited)
	r.Counter("fault_silenced", "probes into the fault layer's silent-block set").Add(s.FaultSilenced)
	r.Counter("fault_blackouts", "packets lost to an injected site blackout").Add(s.FaultBlackouts)
}

// Net is the simulated data plane.
//
// # Concurrency contract
//
// The packet paths (SendProbe, SendEcho, QueryAnycast, tap delivery
// during clock advancement) confine a Net to one goroutine at a time:
// they share a virtual clock with their callers and mutate counters,
// rate-limit state and the event queue without locks, by design —
// single-threaded execution over a virtual clock is what makes runs
// reproducible. Callers that deliver packets in parallel give each
// measurement round and experiment its own Fork and merge results
// deterministically. Outcome is the exception: it only reads the Net,
// so the probe sweep's chunks call it concurrently on one shared Net,
// provided nobody reconfigures the Net (assignment, round, faults)
// meanwhile. The immutable inputs a Net reads (Config.Top, an
// installed *bgp.Assignment) may be shared freely across forks.
//
// The contract is asserted cheaply: re-entering a packet path from a
// second goroutine mid-operation panics (see enter), and the package's
// tests run under the race detector.
type Net struct {
	cfg     Config
	asg     *bgp.Assignment
	testAsg *bgp.Assignment
	round   uint32
	taps    []func(pkt []byte)
	dns     []func(query []byte) []byte
	stats   Stats
	busy    atomic.Bool

	// icmpSent counts reply bursts per /24 for the current round, for
	// the fault profile's ICMP rate limit on SendProbe/SendEcho. It
	// resets on SetRound and is not copied by Fork. The probe sweep does
	// not touch it: it hands Outcome each block's own count.
	icmpSent map[ipv4.Block]int

	// sink, when set, receives parsed echo replies directly instead of
	// marshaled frames through the site taps. See SetReplySink.
	sink ReplySink
}

// ReplySink receives one echo reply in parsed form: the capturing site,
// the reply's source address, its ICMP ident/seq, and the virtual time
// the frame would have arrived. Delivery happens synchronously inside
// SendProbe/SendEcho — at send time, not at the arrival timestamp — so
// a sink may observe replies "from the future"; consumers that care
// about arrival order sort by at, and consumers modeling a live view
// filter at <= now.
type ReplySink func(site int, from ipv4.Addr, ident, seq uint16, at time.Duration)

// SetReplySink installs fn as the reply fast path: every reply that
// would be marshaled and scheduled onto a site tap is instead handed to
// fn immediately, with the identical site, source, ident, seq, and
// arrival time. This removes three allocations per reply copy (the
// frame, the delivery closure, the clock event) and the re-parse at the
// tap, without touching the impairment or fault coins, which depend only
// on (seed, block, round[, seq]). Site taps still gate delivery (a site
// without a tap captures nothing) but are not called. Forks do not
// inherit the sink. The probe sweep needs neither: it folds Outcome
// directly.
func (n *Net) SetReplySink(fn ReplySink) { n.sink = fn }

// Errors surfaced to callers.
var (
	ErrNoAssignment = errors.New("dataplane: no routing assignment installed")
	ErrBadSource    = errors.New("dataplane: probe source outside anycast prefix")
	ErrNoRoute      = errors.New("dataplane: destination has no route to the service")
)

// New builds a Net. Sites are attached afterwards.
func New(cfg Config) *Net {
	if cfg.Top == nil || cfg.Clock == nil {
		panic("dataplane: Config needs Top and Clock")
	}
	return &Net{cfg: cfg}
}

// Fork returns an independent Net over the same topology, seed,
// impairments, fault profile, and prefixes, driven by its own clock:
// same routing state (assignments, round), fresh taps, DNS handlers,
// counters, and ICMP rate-limit state. Campaigns fork the Net once per
// round (see scenario.Scenario.Fork) so each worker owns a whole
// single-threaded simulation; because every impairment and injected
// fault is a deterministic function of (seed, block, round[, seq]), a
// fork delivers exactly the packets the parent would.
func (n *Net) Fork(clock *vclock.Clock) *Net {
	cfg := n.cfg
	cfg.Clock = clock
	f := New(cfg)
	f.asg, f.testAsg, f.round = n.asg, n.testAsg, n.round
	if len(n.taps) > 0 {
		f.grow(len(n.taps) - 1)
	}
	return f
}

// enter asserts the single-goroutine contract on packet paths; leave is
// its counterpart. One uncontended atomic CAS per packet — noise next to
// parsing and delivery — buys a crash instead of silent corruption when
// two goroutines share a Net.
func (n *Net) enter() {
	if !n.busy.CompareAndSwap(false, true) {
		panic("dataplane: concurrent use of Net — fork it per goroutine (see Net's concurrency contract)")
	}
}

func (n *Net) leave() { n.busy.Store(false) }

// AttachSite registers the capture tap and DNS handler for a site. Either
// handler may be nil. Sites must be attached densely from 0.
func (n *Net) AttachSite(site int, tap func(pkt []byte), dns func(query []byte) []byte) {
	n.grow(site)
	n.taps[site] = tap
	n.dns[site] = dns
}

// SetTap replaces only the capture tap of a site — measurements swap taps
// per round without disturbing the service's DNS front end.
func (n *Net) SetTap(site int, tap func(pkt []byte)) {
	n.grow(site)
	n.taps[site] = tap
}

// SetDNS replaces only the DNS handler of a site.
func (n *Net) SetDNS(site int, dns func(query []byte) []byte) {
	n.grow(site)
	n.dns[site] = dns
}

func (n *Net) grow(site int) {
	if site < 0 {
		panic("dataplane: negative site")
	}
	for len(n.taps) <= site {
		n.taps = append(n.taps, nil)
		n.dns = append(n.dns, nil)
	}
}

// SetAssignment installs the routing epoch (which catchment each block
// belongs to). Changing it mid-run models a BGP policy change.
func (n *Net) SetAssignment(a *bgp.Assignment) { n.asg = a }

// SetTestAssignment installs routing for the test prefix — the §3.1
// pre-deployment planning workflow announces candidate configurations
// there while production routing stays on the main assignment.
func (n *Net) SetTestAssignment(a *bgp.Assignment) { n.testAsg = a }

// SetFaults installs (or, with the zero Profile, removes) a fault
// profile. Later Forks inherit it. Installing a profile mid-round also
// resets the per-round ICMP rate-limit accounting.
func (n *Net) SetFaults(p faults.Profile) {
	n.cfg.Faults = p
	n.icmpSent = nil
}

// Faults returns the installed fault profile (zero when none).
func (n *Net) Faults() faults.Profile { return n.cfg.Faults }

// SetRound advances the measurement round used for per-round
// responsiveness churn and catchment flips, and opens a fresh per-round
// ICMP rate-limit budget for every block.
func (n *Net) SetRound(r uint32) {
	n.round = r
	n.icmpSent = nil
}

// Round returns the current round.
func (n *Net) Round() uint32 { return n.round }

// Stats returns a copy of the counters.
func (n *Net) Stats() Stats { return n.stats }

// coinKind names one impairment coin. A coin keys on its kind's name
// folded into the seed byte by byte (h = h*fnvPrime + c); the fold is
// affine in the seed, so each kind precomputes it as seed*mul + add,
// equal to the byte fold mod 2^64, and a flip never walks the name.
type coinKind struct{ mul, add uint64 }

const fnvPrime = 1099511628211

func newCoinKind(name string) coinKind {
	k := coinKind{mul: 1}
	for i := 0; i < len(name); i++ {
		k.mul *= fnvPrime
		k.add = k.add*fnvPrime + uint64(name[i])
	}
	return k
}

// The seven impairment coins.
var (
	kResp      = newCoinKind("resp")
	kRespChurn = newCoinKind("resp-churn")
	kAlias     = newCoinKind("alias")
	kXAlias    = newCoinKind("xalias")
	kLate      = newCoinKind("late")
	kDup       = newCoinKind("dup")
	kDupN      = newCoinKind("dupn")
)

// hash mixes identifiers into a uniform [0,1) float, the deterministic
// coin every impairment flips.
func (n *Net) hash(kind coinKind, block ipv4.Block, round uint32) float64 {
	h := n.cfg.Seed*kind.mul + kind.add
	h ^= uint64(block) << 24
	h ^= uint64(round)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h&0xfffffffffffff) / float64(1<<52)
}

// SendProbe injects one marshaled IPv4+ICMP echo request from the anycast
// measurement address (at originSite) toward a hitlist target. Replies —
// zero, one, or many — are scheduled onto the catchment site's tap.
func (n *Net) SendProbe(originSite int, raw []byte) error {
	n.enter()
	defer n.leave()
	probe, err := packet.UnmarshalEcho(raw)
	if err != nil && n.asg != nil { // with no assignment, send reports that first
		n.stats.ProbesSent++
		n.stats.BadPackets++
		return fmt.Errorf("dataplane: malformed probe: %w", err)
	}
	return n.send(originSite, probe.IP.Src, probe.IP.Dst,
		probe.Echo.Ident, probe.Echo.Seq, probe.Echo.Payload)
}

// SendEcho is SendProbe without the wire format: it injects an echo
// request given directly as (source, target, ident, seq). Every counter,
// impairment coin, and fault decision is identical to sending the
// equivalent marshaled frame, because none of them read raw bytes.
func (n *Net) SendEcho(originSite int, src, dst ipv4.Addr, ident, seq uint16) error {
	n.enter()
	defer n.leave()
	return n.send(originSite, src, dst, ident, seq, nil)
}

// send applies one probe's Outcome to the Net: it adds the counter
// deltas, spends the block's ICMP burst, and delivers the reply copies
// to the sink or, marshaled, onto the capturing site's tap.
func (n *Net) send(originSite int, src, dst ipv4.Addr, ident, seq uint16, payload []byte) error {
	block := dst.Block()
	bursts := 0
	if n.cfg.Faults.RateLimit > 0 {
		bursts = n.icmpSent[block]
	}
	o := n.Outcome(originSite, src, dst, seq, bursts, n.hasTap)
	n.stats.Add(o.Stats)
	if o.Burst {
		if n.icmpSent == nil {
			n.icmpSent = make(map[ipv4.Block]int)
		}
		n.icmpSent[block]++
	}
	if o.Copies == 0 {
		return o.Err
	}
	now := n.cfg.Clock.Now()
	if n.sink != nil {
		// Fast path: hand the parsed reply to the sink stamped with its
		// would-be arrival time. No frame, no closure, no clock event.
		for c := 0; c < o.Copies; c++ {
			n.sink(o.Site, o.From, ident, seq, now+o.Arrival(c))
		}
		return nil
	}
	reply := packet.MarshalEcho(o.From, src, packet.ICMPEchoReply, ident, seq, payload)
	tap := n.taps[o.Site]
	for c := 0; c < o.Copies; c++ {
		n.cfg.Clock.After(o.Arrival(c), func() { tap(reply) })
	}
	return nil
}

func (n *Net) hasTap(site int) bool { return site < len(n.taps) && n.taps[site] != nil }

// DupSpacing separates consecutive copies of one duplicated reply.
const DupSpacing = 50 * time.Microsecond

// Echo is what one echo request produces: the reply copies a site
// captures and the counter deltas the send adds to Stats.
type Echo struct {
	// Site is the capturing site and From the reply's source — the
	// target, or an alias of it. Both are meaningful only when Copies > 0.
	Site int
	From ipv4.Addr
	// Delay is the first copy's arrival after the send; see Arrival.
	Delay time.Duration
	// Copies counts the captured reply copies: 0 when nothing arrives,
	// more than 1 when the host duplicates.
	Copies int
	// Burst reports that the probe spent one of its /24's per-round ICMP
	// rate-limit bursts (only under a fault profile with a RateLimit).
	Burst bool
	// Stats holds the counter deltas and Err the error SendEcho returns.
	Stats Stats
	Err   error
}

// Arrival is copy c's arrival after the send.
func (o *Echo) Arrival(c int) time.Duration { return o.Delay + time.Duration(c)*DupSpacing }

// Outcome decides what one echo request from src (a measurement address
// at originSite) to dst with ICMP sequence seq produces: prefix
// validation, the impairment and fault gauntlet, the capturing site,
// the reply's source, its delay and copy count. bursts is how many ICMP
// reply bursts dst's /24 has already emitted this round, and captures
// reports whether a site has a capture point; a reply routed to any
// other site dies uncaptured.
//
// Outcome is pure: it performs no I/O and mutates nothing on the Net,
// so concurrent callers may share one Net as long as nobody reconfigures
// it meanwhile. SendEcho and SendProbe are Outcome applied to the Net's
// own counters, rate-limit state, and taps; the probe sweep folds
// Outcomes directly. The gauntlet's order decides which counter a
// dropped probe lands in, and the golden smokes pin it.
func (n *Net) Outcome(originSite int, src, dst ipv4.Addr, seq uint16, bursts int, captures func(site int) bool) (o Echo) {
	o.Site = -1
	o.Stats.ProbesSent = 1
	asg := n.asg
	if asg == nil {
		o.Err = ErrNoAssignment
		return
	}
	switch {
	case n.cfg.AnycastPrefix.Contains(src):
		// production prefix
	case n.cfg.TestPrefix.Bits > 0 && n.cfg.TestPrefix.Contains(src):
		if n.testAsg == nil {
			o.Err = ErrNoAssignment
			return
		}
		asg = n.testAsg
	default:
		o.Stats.BadPackets++
		o.Err = ErrBadSource
		return
	}
	target := dst
	bi := n.cfg.Top.BlockIndex(target.Block())
	if bi < 0 {
		o.Stats.UnknownBlocks++
		return // probing unrouted space: silence, like the real thing
	}
	binfo := &n.cfg.Top.Blocks[bi]
	injectFaults := n.cfg.Faults.Enabled()

	if injectFaults {
		// Forward-path faults: a filtered (permanently silent) block, or
		// the probe lost in flight. The sequence number keys the loss
		// coin so a retry with a fresh sequence is an independent draw.
		if n.cfg.Faults.Silent(binfo.Block) {
			o.Stats.FaultSilenced++
			return
		}
		if n.cfg.Faults.DropProbe(binfo.Block, n.round, seq) {
			o.Stats.FaultProbeLost++
			return
		}
	}

	// Does the representative answer this round?
	if !n.responds(binfo) {
		o.Stats.Unresponsive++
		return
	}

	if injectFaults && n.cfg.Faults.RateLimit > 0 {
		// ICMP rate limiting at the target's router: each /24 emits at
		// most RateLimit reply bursts per round; the budget is consumed
		// only by probes that would actually elicit a reply.
		if bursts >= n.cfg.Faults.RateLimit {
			o.Stats.FaultRateLimited++
			return
		}
		o.Burst = true
	}

	site := asg.SiteAt(bi, n.round, n.cfg.Seed)
	if site < 0 || !captures(site) {
		// The block's AS heard no announcement; its reply dies in the
		// void. (With full propagation this is unreachable, but
		// partial announcements are a legitimate scenario.)
		o.Stats.Unresponsive++
		return
	}

	// Source address: usually the probed address, sometimes an alias.
	from := target
	if n.hash(kAlias, binfo.Block, n.round) < n.cfg.Impair.AliasFrac {
		o.Stats.Aliased++
		if n.hash(kXAlias, binfo.Block, n.round) < n.cfg.Impair.CrossAlias && bi+1 < len(n.cfg.Top.Blocks) {
			from = n.cfg.Top.Blocks[bi+1].Block.Addr(uint8(target) & 0xff)
		} else {
			from = target.Block().Addr(uint8(target) + 101)
		}
	}
	if injectFaults {
		// Return-path faults: the catchment site dark for the round
		// (nobody captures), or the reply — every duplicate copy of it,
		// since the path drops rather than the host — lost in flight.
		if n.cfg.Faults.Blackout(site, n.round) {
			o.Stats.FaultBlackouts++
			return
		}
		if n.cfg.Faults.DropReply(binfo.Block, n.round, seq) {
			o.Stats.FaultReplyLost++
			return
		}
	}

	// Latency: origin→target plus target→catchment-site legs.
	delay := n.cfg.Impair.BaseRTT + n.replyDelay(asg, binfo, originSite, site)
	if n.hash(kLate, binfo.Block, n.round) < n.cfg.Impair.LateFrac {
		o.Stats.Late++
		delay += n.cfg.Impair.LateDelay
	}

	copies := 1
	if n.hash(kDup, binfo.Block, n.round) < n.cfg.Impair.DupFrac {
		// Mostly one extra; occasionally a pathological repeater.
		extra := 1
		if r := n.hash(kDupN, binfo.Block, n.round); r < 0.05 {
			extra = 2 + int(r*20*float64(n.cfg.Impair.DupMax))
			if extra > n.cfg.Impair.DupMax {
				extra = n.cfg.Impair.DupMax
			}
		}
		copies += extra
		o.Stats.Duplicates += uint64(extra)
	}
	o.Stats.Replies = uint64(copies)
	o.Site, o.From, o.Delay, o.Copies = site, from, delay, copies
	return
}

func (n *Net) replyDelay(asg *bgp.Assignment, b *topology.BlockInfo, originSite, catchSite int) time.Duration {
	// Geographic legs using the announcement coordinates of both sites.
	anns := asg.Table.Anns
	var d1, d2 float64
	for _, a := range anns {
		if a.Site == originSite {
			d1 = topology.GeoDistance(float64(b.Lat), float64(b.Lon), a.Lat, a.Lon)
		}
		if a.Site == catchSite {
			d2 = topology.GeoDistance(float64(b.Lat), float64(b.Lon), a.Lat, a.Lon)
		}
	}
	return time.Duration((d1 + d2) / 2 * float64(n.cfg.Impair.RTTPerDegree))
}

// QueryAnycast routes a DNS query from a client address to its catchment
// site and returns the site's answer along with the site index. It is
// synchronous: the simulated Atlas platform and the load generator use it
// as their resolver path.
func (n *Net) QueryAnycast(from ipv4.Addr, query []byte) ([]byte, int, error) {
	n.enter()
	defer n.leave()
	if n.asg == nil {
		return nil, -1, ErrNoAssignment
	}
	bi := n.cfg.Top.BlockIndex(from.Block())
	if bi < 0 {
		n.stats.QueriesDropped++
		return nil, -1, fmt.Errorf("%w: %v not in any routed block", ErrNoRoute, from)
	}
	site := n.asg.SiteAt(bi, n.round, n.cfg.Seed)
	if site < 0 || site >= len(n.dns) || n.dns[site] == nil {
		n.stats.QueriesDropped++
		return nil, -1, ErrNoRoute
	}
	if n.cfg.Faults.Enabled() && n.cfg.Faults.Blackout(site, n.round) {
		// A blacked-out site is unreachable to its whole catchment: the
		// same outage that loses measurement replies fails live queries.
		n.stats.QueriesDropped++
		n.stats.FaultBlackouts++
		return nil, -1, ErrNoRoute
	}
	n.stats.QueriesRouted++
	return n.dns[site](query), site, nil
}

// SiteOfBlock exposes the current-round catchment of a block — the ground
// truth an operator does NOT have; only tests and EXPERIMENTS validation
// may use it.
func (n *Net) SiteOfBlock(b ipv4.Block) int {
	if n.asg == nil {
		return -1
	}
	bi := n.cfg.Top.BlockIndex(b)
	if bi < 0 {
		return -1
	}
	return n.asg.SiteAt(bi, n.round, n.cfg.Seed)
}

// RespChurn is the per-round probability that a block's responsiveness
// state inverts. The paper observes ~2.4% of VPs going silent (and about
// as many returning) between 15-minute rounds — hosts are strongly
// autocorrelated, not re-rolled every round.
const RespChurn = 0.013

// responds decides whether a block's representative answers this round:
// a round-independent base state (probability = the block's Responsive
// score) inverted with small per-round churn.
func (n *Net) responds(binfo *topology.BlockInfo) bool {
	base := n.hash(kResp, binfo.Block, 0) < float64(binfo.Responsive)
	if n.hash(kRespChurn, binfo.Block, n.round) < RespChurn {
		return !base
	}
	return base
}

// PathRTT returns the modelled round-trip time between a client address
// and its current catchment site — what a vantage point measures when it
// pings the anycast service (the latency view platforms like RIPE Atlas
// provide, which [43] uses for placement studies).
func (n *Net) PathRTT(from ipv4.Addr) (time.Duration, int, bool) {
	if n.asg == nil {
		return 0, -1, false
	}
	bi := n.cfg.Top.BlockIndex(from.Block())
	if bi < 0 {
		return 0, -1, false
	}
	site := n.asg.SiteAt(bi, n.round, n.cfg.Seed)
	if site < 0 {
		return 0, -1, false
	}
	b := &n.cfg.Top.Blocks[bi]
	var d float64
	for _, a := range n.asg.Table.Anns {
		if a.Site == site {
			d = topology.GeoDistance(float64(b.Lat), float64(b.Lon), a.Lat, a.Lon)
			break
		}
	}
	return n.cfg.Impair.BaseRTT + time.Duration(d*float64(n.cfg.Impair.RTTPerDegree)), site, true
}

// Responds reports whether the block's representative answers pings this
// round (ground truth for tests).
func (n *Net) Responds(b ipv4.Block) bool {
	bi := n.cfg.Top.BlockIndex(b)
	if bi < 0 {
		return false
	}
	return n.responds(&n.cfg.Top.Blocks[bi])
}
