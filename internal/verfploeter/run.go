package verfploeter

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"verfploeter/internal/dataplane"
	"verfploeter/internal/hitlist"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/obsv"
	"verfploeter/internal/parallel"
	"verfploeter/internal/rng"
	"verfploeter/internal/vclock"
)

// Config describes one measurement round (§3.1, §4.2):
//
//   - probes go to every hitlist target, in pseudorandom order, rate
//     limited "to prevent overloading networks or network equipment"
//     (DefaultRate);
//   - they carry the round identifier in the ICMP Ident field so
//     overlapping rounds separate cleanly;
//   - replies are captured at every site and cleaned with the paper's
//     15-minute cutoff (DefaultCutoff).
type Config struct {
	Hitlist *hitlist.Hitlist
	Net     *dataplane.Net
	NSite   int

	// OriginSite is where the prober runs; SourceAddr is the designated
	// measurement address inside the anycast prefix.
	OriginSite int
	SourceAddr ipv4.Addr

	// RoundID tags this measurement's probes.
	RoundID uint16

	// Seed keys the pseudorandom probe order.
	Seed uint64

	// Workers bounds the parallel engine's pool: probe synthesis and the
	// chunked sweep. Zero means one worker per CPU. The result is
	// identical for every worker count — chunk boundaries depend only on
	// the hitlist size and merges happen in chunk order.
	Workers int

	// Subset restricts the sweep to hitlist entries whose /24 block is in
	// the set; nil probes the full hitlist. Partial sweeps keep the full
	// sweep's probe permutation, chunk boundaries, and per-target sequence
	// numbers — excluded positions are skipped, never renumbered — so each
	// probed block draws exactly the coins (responsiveness, loss, alias,
	// duplicate) it would draw in a full sweep of the same round, and RTTs
	// are unchanged because the dataplane's delays depend on geography,
	// not send time. This is the contract that lets continuous monitoring
	// stitch partial re-probe results into a map byte-identical to an
	// always-full re-probe. An empty (non-nil) subset probes nothing.
	Subset *ipv4.BlockSet

	// Retries is the per-target retransmission budget for loss-aware
	// probing: after the initial sweep, targets that have not answered are
	// re-probed up to Retries times, with capped exponential backoff on
	// the virtual clock between passes (DefaultRetryBackoff, doubling up
	// to DefaultRetryBackoffMax). Each retry carries a fresh sequence
	// number, so the fault layer's loss coins are independent draws and
	// the reply fold's first-reply-wins dedup guarantees a block is never
	// counted twice. Zero (the default) disables retries and leaves the
	// probe stream byte-identical to earlier releases.
	Retries int

	// Obs, when set, receives the round's instrumentation: probe/reply/
	// fault counters and (with tracing enabled) per-chunk sweep spans.
	// Publication happens once per Run from totals the round already
	// accumulated — never per probe — so a nil registry (the default)
	// costs nothing and the measured output is byte-identical either way.
	// See internal/obsv.
	Obs *obsv.Registry
}

// Stats summarizes one round.
type Stats struct {
	Sent     int
	SendErrs int
	Elapsed  time.Duration // virtual time the probing took
	Clean    CleanStats
	// MedianRTT is the median probe round-trip time over kept replies;
	// the paper (§7) suggests these RTTs can drive site placement.
	MedianRTT time.Duration

	// Targets is the number of hitlist targets probed; Responded the
	// number of blocks that made it into the catchment. Their ratio is
	// the sweep-level response rate — the coverage signal downstream
	// analyses use to qualify catchment fractions under loss.
	Targets   int
	Responded int
	// Retried counts retransmitted probes (0 unless Config.Retries > 0).
	Retried int
}

// ResponseRate is the fraction of probed targets that answered, in
// [0,1]. The paper sees ~55% on the real Internet; the synthetic
// dataplane reproduces that via responsiveness scores, and the fault
// layer (internal/faults) pushes it lower still. 0 when nothing was
// probed — never NaN.
func (s Stats) ResponseRate() float64 {
	if s.Targets == 0 {
		return 0
	}
	return float64(s.Responded) / float64(s.Targets)
}

// Sweep tuning. The prober sends DefaultRate probes per second (paper:
// 6-10k q/s) from a token bucket DefaultBurst deep, and the cleaner
// drops replies arriving more than DefaultCutoff after the round starts
// (paper: 15 minutes). Retry passes wait DefaultRetryBackoff, doubling
// each pass up to DefaultRetryBackoffMax — ample margin over the
// dataplane's worst-case reply RTT, so in-flight replies are never
// retried spuriously.
const (
	DefaultRate            = 10000.0
	DefaultBurst           = 64
	DefaultCutoff          = 15 * time.Minute
	DefaultRetryBackoff    = time.Second
	DefaultRetryBackoffMax = 8 * time.Second
)

// retrySeqStride separates the sequence-number space of each retry
// attempt: attempt a probes permutation position i with sequence
// uint16(i) + a*retrySeqStride. Attempt 0 is the plain position, so the
// initial sweep's wire format is untouched; the stride is odd, so
// consecutive attempts never collide within a chunk.
const retrySeqStride = 0x9e37

// probeChunkTargets fixes the granularity of the chunked probe sweep:
// each chunk of the probe permutation runs as an independent
// single-threaded pass on its own virtual clock. The size is a constant
// — never derived from the worker count — because chunk boundaries and
// the chunk-ordered merge are what make Run's output byte-identical at
// workers=1 and workers=N.
const probeChunkTargets = 4096

// ErrConfig reports invalid measurement configuration.
var ErrConfig = errors.New("verfploeter: bad config")

func (cfg *Config) validate() error {
	if cfg.Hitlist == nil || cfg.Hitlist.Len() == 0 {
		return fmt.Errorf("%w: empty hitlist", ErrConfig)
	}
	if cfg.Net == nil {
		return fmt.Errorf("%w: need Net", ErrConfig)
	}
	if cfg.NSite <= 0 {
		return fmt.Errorf("%w: NSite must be positive", ErrConfig)
	}
	if cfg.OriginSite < 0 || cfg.OriginSite >= cfg.NSite {
		return fmt.Errorf("%w: origin site %d of %d", ErrConfig, cfg.OriginSite, cfg.NSite)
	}
	if cfg.Retries < 0 {
		return fmt.Errorf("%w: negative Retries", ErrConfig)
	}
	return nil
}

// Run performs one full measurement round: probe, capture, clean, map.
// It returns the catchment of every responsive block.
//
// The round executes on the parallel engine as fixed-size chunks of the
// probe permutation, each paced on its own virtual clock offset to the
// time the rate limiter would reach that chunk. A chunk asks the Net for
// each probe's dataplane.Outcome — pure, so Run only reads the Net — and
// folds the reply into the catchment where the probe was sent. Every
// merge happens in chunk order, so the catchment and stats are identical
// for any Workers value.
func Run(cfg Config) (*Catchment, Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, Stats{}, err
	}
	n := cfg.Hitlist.Len()
	perm := rng.NewPermutation(rng.New(cfg.Seed).Derive("probe-order"), n)

	// Columnar sweep state, indexed by the hitlist's dense block id
	// (entry order == ascending block order == columnar id). order maps
	// permutation position → id, so the sweep evaluates the permutation
	// once per target here rather than again per send; pos32 is its
	// inverse, id → full-permutation position (the base of
	// sequence-number arithmetic); sendNS maps id → last probe send time
	// in ns (-1 = never probed). Chunks probe disjoint permutation
	// positions, hence disjoint ids, so they write sendNS and their
	// targets' catchment rows without locks or merges. A subset sweep
	// fills order and pos32 for its members only (see subsetMembers).
	order := make([]uint32, n)
	pos32 := make([]uint32, n)
	nChunks := (n + probeChunkTargets - 1) / probeChunkTargets
	var members [][]int
	if cfg.Subset == nil {
		for i := 0; i < n; i++ {
			id := perm.Index(i)
			order[i] = uint32(id)
			pos32[id] = uint32(i)
		}
	} else {
		members = subsetMembers(&cfg, perm, nChunks, order, pos32)
	}
	sendNS := make([]int64, n)
	for i := range sendNS {
		sendNS[i] = -1
	}
	catch := NewCatchment(cfg.NSite, cfg.Hitlist.Index())
	catch.ensureRTTs()
	rd := &round{cfg: &cfg, order: order, pos32: pos32, sendNS: sendNS, catch: catch}

	// Chunked sweep: chunk c probes permutation positions [lo, hi) on a
	// virtual clock that starts at the time the round's rate limiter
	// would reach position lo, so capture timestamps line up with one
	// continuous paced sweep.
	chunks := make([]probeChunk, nChunks)
	parallel.ForEach(cfg.Workers, nChunks, func(c int) {
		lo := c * probeChunkTargets
		sp := chunkSpan{lo: lo, hi: min(lo+probeChunkTargets, n)}
		if members != nil {
			sp.incl = members[c]
		}
		span := cfg.Obs.StartSpan("sweep", c)
		sw := chunkSweep{round: rd, ci: c, sp: sp, clock: vclock.New()}
		sw.clock.Advance(chunkOffset(lo))
		vStart := sw.clock.Now()
		sw.run()
		chunks[c] = sw.probeChunk
		span.Virtual(vStart, sw.end).End()
	})

	var stats Stats
	var firstErr error
	for c := range chunks {
		stats.Targets += chunks[c].stats.Targets
		stats.Sent += chunks[c].stats.Sent
		stats.SendErrs += chunks[c].stats.SendErrs
		stats.Retried += chunks[c].stats.Retried
		if firstErr == nil {
			firstErr = chunks[c].err
		}
		if chunks[c].end > stats.Elapsed {
			stats.Elapsed = chunks[c].end
		}
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}

	// A cross-block alias captured in another chunk than its source's
	// own takes the block when the block has no reply of its own, or
	// when it is a sequence-matched echo from an earlier chunk: the
	// kept reply is the first echo in chunk order, else the first reply.
	// It never carries an RTT — its chunk did not send the block's probe.
	// Each block has one topology predecessor, so the aliases a chunk
	// records for a block share one site and the merge order is free.
	valid := 0
	for c := range chunks {
		stats.Clean.add(chunks[c].stats.Clean)
		valid += chunks[c].valid
		for _, a := range chunks[c].aliases {
			owner := int(pos32[a.id]) / probeChunkTargets
			if catch.csites[a.id] < 0 || (a.echo && c < owner) {
				catch.storeID(a.id, a.site, 0)
			}
		}
	}
	catch.recount()
	stats.Clean.Kept = catch.Len()
	stats.Clean.Duplicates = valid - stats.Clean.Kept
	stats.MedianRTT = catch.MedianRTT()
	stats.Responded = catch.Len()
	if cfg.Obs != nil {
		var net dataplane.Stats
		for c := range chunks {
			net.Add(chunks[c].netStats)
		}
		publishRound(cfg.Obs, stats, &net)
	}
	return catch, stats, nil
}

// chunkOffset is the virtual time one continuous paced sweep takes to
// reach permutation position lo: a single rounding of lo·1e9/rate, never
// a truncated per-token interval multiplied up (which drifts at rates
// that do not divide a second — the same bug class the RateLimiter's
// integer ledger fixes).
func chunkOffset(lo int) time.Duration {
	return time.Duration(float64(lo) * float64(time.Second) / DefaultRate)
}

// round is the sweep state every chunk shares.
type round struct {
	cfg          *Config
	order, pos32 []uint32
	sendNS       []int64
	catch        *Catchment
}

// probeChunk is one chunk's share of the round: sweep stats and the
// cleaning counts that do not depend on order (Total, Late,
// Unsolicited), its valid reply copies, the aliases it captured for
// targets of other chunks, its dataplane counter deltas (so Run can
// publish fault totals without touching the per-packet path), its final
// absolute virtual time, and its first send error.
type probeChunk struct {
	stats    Stats
	valid    int
	aliases  []crossAlias
	netStats dataplane.Stats
	end      time.Duration
	err      error
}

// crossAlias is a valid reply captured in one chunk from the hitlist
// address of a target another chunk owns: the cross-block alias of that
// target's topology predecessor. echo marks a sequence match.
type crossAlias struct {
	id   int
	site int16
	echo bool
}

// Kept-reply classes of a target, in precedence order: a sequence-
// matched echo replaces an alias, never the reverse.
const (
	unseen uint8 = iota
	keptAlias
	keptEcho
)

// never is a target's first-reply time until a reply is captured.
const never = time.Duration(math.MaxInt64)

// slot is one probed target's fold state inside its chunk: the reply
// kept so far (the earliest echo, else the first reply; ties in arrival
// go to the earlier send, which reached the fold first), the earliest
// reply captured to its address (what a retry pass sees), and the ICMP
// reply bursts its /24 has emitted this round.
type slot struct {
	first  time.Duration
	at     time.Duration
	site   int16
	kept   uint8
	bursts int32
}

// chunkSweep is one chunk's working state while it runs.
type chunkSweep struct {
	*round
	probeChunk
	ci       int
	sp       chunkSpan
	clock    *vclock.Clock
	slots    []slot
	captures func(site int) bool
}

// run sends the chunk's sweep and retry passes and writes its targets'
// catchment rows.
func (s *chunkSweep) run() {
	nSite := s.cfg.NSite
	s.captures = func(site int) bool { return site < nSite }
	s.stats.Targets = s.sp.count()
	s.slots = make([]slot, s.sp.count())
	for k := range s.slots {
		s.slots[k].first = never
	}
	pacedSend(s.clock, s.sp.count(), func(k int) { s.probe(k, 0) })
	if s.err == nil && s.cfg.Retries > 0 {
		s.retryMissing()
	}
	s.end = max(s.end, s.clock.Now())
	// An echo earns its arrival minus the target's last send, retries
	// included, when it arrived after that send.
	for k := range s.slots {
		t := &s.slots[k]
		if t.kept == unseen {
			continue
		}
		id := int(s.order[s.sp.pos(k)])
		var rtt int64
		if t.kept == keptEcho && int64(t.at) > s.sendNS[id] {
			rtt = int64(t.at) - s.sendNS[id]
		}
		s.catch.storeID(id, t.site, rtt)
	}
}

// retryMissing is the loss-aware retransmission pass for one chunk: it
// waits out the backoff on the chunk's virtual clock (letting in-flight
// replies land), re-probes every target that has not yet answered, and
// repeats with doubled backoff up to the retry budget. A target has
// answered once a reply to its address was captured in this chunk by
// now: its own, or its predecessor's alias. Each attempt sends a fresh
// sequence number, so the fault layer's loss coins are independent
// draws. Targets whose replies are aliased to another source keep being
// retried — exactly what a real prober, blind to the alias, would do.
func (s *chunkSweep) retryMissing() {
	backoff := DefaultRetryBackoff
	missing := make([]int, 0, 64)
	for attempt := 1; attempt <= s.cfg.Retries; attempt++ {
		s.clock.Advance(backoff)
		now := s.clock.Now()
		missing = missing[:0]
		for k := range s.slots {
			if s.slots[k].first > now {
				missing = append(missing, k)
			}
		}
		if len(missing) == 0 {
			return
		}
		pacedSend(s.clock, len(missing), func(j int) { s.probe(missing[j], attempt) })
		s.stats.Retried += len(missing)
		if s.err != nil {
			return
		}
		backoff = min(2*backoff, DefaultRetryBackoffMax)
	}
}

// probe sends attempt a of the echo to the target at span rank k and
// folds what it produces. Probes travel as parsed fields — nothing reads
// wire bytes, so a per-probe marshal/parse pair would be pure
// allocation.
func (s *chunkSweep) probe(k, a int) {
	i := s.sp.pos(k)
	id := int(s.order[i])
	addr := s.cfg.Hitlist.Entries[id].Addr
	seq := uint16(i) + uint16(a)*retrySeqStride
	now := s.clock.Now()
	s.sendNS[id] = int64(now)
	t := &s.slots[k]
	o := s.cfg.Net.Outcome(s.cfg.OriginSite, s.cfg.SourceAddr, addr, seq, int(t.bursts), s.captures)
	s.netStats.Add(o.Stats)
	if o.Burst {
		t.bursts++
	}
	if o.Err != nil {
		s.stats.SendErrs++
		if s.err == nil {
			s.err = o.Err
		}
	}
	s.stats.Sent++
	if o.Copies == 0 {
		return
	}

	// Clean the copies: all count, those past the cutoff are late, and
	// the rest are valid when their source is a probed representative.
	at := now + o.Delay
	s.end = max(s.end, now+o.Arrival(o.Copies-1))
	s.stats.Clean.Total += o.Copies
	valid := 0
	if at <= DefaultCutoff {
		valid = min(o.Copies, int((DefaultCutoff-at)/dataplane.DupSpacing)+1)
	}
	s.stats.Clean.Late += o.Copies - valid
	echo := true
	if o.From != addr {
		// An alias: unsolicited unless it is a cross-block alias onto the
		// next block's probed representative, and then that target's
		// echo only on a sequence collision.
		tid := s.cfg.Hitlist.Index().Of(o.From.Block())
		if tid < 0 || s.cfg.Hitlist.Entries[tid].Addr != o.From || s.pos32[tid] == notProbed {
			s.stats.Clean.Unsolicited += valid
			return
		}
		s.valid += valid
		p := int(s.pos32[tid])
		echo = isEcho(s.pos32[tid], seq, s.cfg.Retries)
		if p/probeChunkTargets != s.ci {
			if valid > 0 {
				s.aliases = append(s.aliases, crossAlias{id: tid, site: int16(o.Site), echo: echo})
			}
			return
		}
		t = &s.slots[s.sp.rank(p)]
	} else {
		s.valid += valid
	}
	t.first = min(t.first, at)
	if valid == 0 {
		return
	}
	switch {
	case t.kept == unseen, t.kept == keptAlias && echo:
	case t.kept == keptEcho && echo && at < t.at:
	default:
		return
	}
	t.kept, t.site, t.at = keptAlias, int16(o.Site), at
	if echo {
		t.kept = keptEcho
	}
}

// isEcho reports whether a reply with sequence seq from the hitlist
// address at full-permutation position pos is that address's own echo:
// seq matches pos on some retry attempt.
func isEcho(pos uint32, seq uint16, retries int) bool {
	d := seq - uint16(pos)
	for a := 0; a <= retries; a++ {
		if d == uint16(a)*retrySeqStride {
			return true
		}
	}
	return false
}

// chunkSpan is one chunk's slice of the probe permutation: the dense
// position range [lo, hi), optionally filtered (incl != nil) to the
// positions whose target is in Config.Subset. Positions, not ranks,
// flow into sequence numbers, so a filtered span probes with the exact
// wire identity of the full sweep.
type chunkSpan struct {
	lo, hi int
	incl   []int
}

func (sp chunkSpan) count() int {
	if sp.incl != nil {
		return len(sp.incl)
	}
	return sp.hi - sp.lo
}

func (sp chunkSpan) pos(k int) int {
	if sp.incl != nil {
		return sp.incl[k]
	}
	return sp.lo + k
}

// rank inverts pos for a position p the span probes.
func (sp chunkSpan) rank(p int) int {
	if sp.incl != nil {
		k, _ := slices.BinarySearch(sp.incl, p)
		return k
	}
	return p - sp.lo
}

// notProbed is pos32's entry for an id outside Config.Subset. A reply
// from such an id's address is unsolicited.
const notProbed = ^uint32(0)

// subsetMembers locates Config.Subset's members in the full sweep's
// permutation without evaluating the rest of it: one inverse
// permutation per member fills that member's order and pos32 entries
// (every other id keeps pos32 = notProbed), and the positions are
// bucketed by chunk and sorted — each chunk's share of the full sweep's
// send order. The permutation work and the bucket sorts scale with the
// subset; only the pos32 sentinel fill touches every id.
func subsetMembers(cfg *Config, perm *rng.Permutation, nChunks int, order, pos32 []uint32) [][]int {
	for i := range pos32 {
		pos32[i] = notProbed
	}
	ix := cfg.Hitlist.Index()
	positions := make([]int, 0, cfg.Subset.Len())
	counts := make([]int, nChunks)
	cfg.Subset.Range(func(b ipv4.Block) bool {
		if id := ix.Of(b); id >= 0 {
			p := perm.Position(id)
			order[p] = uint32(id)
			pos32[id] = uint32(p)
			positions = append(positions, p)
			counts[p/probeChunkTargets]++
		}
		return true
	})
	// Counting sort into one backing array: each chunk's bucket is a
	// capacity-capped window that its appends fill exactly. An empty
	// bucket is still non-nil, since chunkSpan reads a nil incl as the
	// whole chunk.
	members := make([][]int, nChunks)
	backing := make([]int, len(positions))
	off := 0
	for c, k := range counts {
		members[c] = backing[off : off : off+k]
		off += k
	}
	for _, p := range positions {
		c := p / probeChunkTargets
		members[c] = append(members[c], p)
	}
	for _, m := range members {
		slices.Sort(m)
	}
	return members
}

// pacedSend is the send loop under the initial sweep and the retry
// passes: it emits count probes — emit(k) sends the k-th — paced by a
// token bucket on the virtual clock.
func pacedSend(clock *vclock.Clock, count int, emit func(k int)) {
	rl := vclock.NewRateLimiter(clock, DefaultRate, DefaultBurst)
	k := 0
	send := func() {
		for k < count && rl.Allow() {
			emit(k)
			k++
		}
	}
	// Replies are folded at send time, so the chunk's clock carries no
	// events and pacing is plain arithmetic. The clock moves in windows
	// of one token delay plus a millisecond; inside a window, each step
	// jumps to the instant the next token is due and sends the burst the
	// bucket allows. The loop returns at the end of the window in which
	// the last probe went out.
	send()
	if k < count {
		stepAt := clock.Now() + rl.Delay()
		for k < count {
			target := clock.Now() + rl.Delay() + time.Millisecond
			for k < count && stepAt <= target {
				clock.Advance(stepAt - clock.Now())
				send()
				if k < count {
					stepAt = clock.Now() + rl.Delay()
				}
			}
			clock.Advance(target - clock.Now())
		}
	}
}

// CleanStats accounts for the paper's data-cleaning pass (§4): about 2%
// of replies are duplicates, some replies come from addresses that were
// never probed, and replies after the cutoff are dropped.
type CleanStats struct {
	Total       int
	WrongRound  int
	Late        int
	Unsolicited int
	Duplicates  int
	Kept        int
}

func (s *CleanStats) add(o CleanStats) {
	s.Total += o.Total
	s.WrongRound += o.WrongRound
	s.Late += o.Late
	s.Unsolicited += o.Unsolicited
	s.Duplicates += o.Duplicates
	s.Kept += o.Kept
}

// Clean filters raw replies: wrong round ident, late arrival, sources we
// never probed, and duplicates (first reply per source wins).
func Clean(replies []Reply, probed map[ipv4.Addr]bool, roundID uint16, cutoff time.Duration) ([]Reply, CleanStats) {
	stats := CleanStats{Total: len(replies)}
	seen := make(map[ipv4.Addr]bool, len(replies))
	out := make([]Reply, 0, len(replies))
	for _, r := range replies {
		switch {
		case r.Ident != roundID:
			stats.WrongRound++
		case r.At > cutoff:
			stats.Late++
		case !probed[r.Src]:
			stats.Unsolicited++
		case seen[r.Src]:
			stats.Duplicates++
		default:
			seen[r.Src] = true
			out = append(out, r)
		}
	}
	stats.Kept = len(out)
	return out, stats
}
