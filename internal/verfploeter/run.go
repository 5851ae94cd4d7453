package verfploeter

import (
	"cmp"
	"errors"
	"fmt"
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
//     limited "to prevent overloading networks or network equipment";
//   - they carry the round identifier in the ICMP Ident field so
//     overlapping rounds separate cleanly;
//   - replies are captured at every site and cleaned with the paper's
//     15-minute cutoff.
type Config struct {
	Hitlist *hitlist.Hitlist
	Net     *dataplane.Net
	Clock   *vclock.Clock
	NSite   int

	// OriginSite is where the prober runs; SourceAddr is the designated
	// measurement address inside the anycast prefix.
	OriginSite int
	SourceAddr ipv4.Addr

	// Rate is probes/second (paper: 6-10k q/s); Burst the token-bucket
	// depth. Zero values take defaults.
	Rate  float64
	Burst int

	// RoundID tags this measurement's probes.
	RoundID uint16

	// Cutoff discards replies arriving later than this after the round
	// starts (paper: 15 minutes).
	Cutoff time.Duration

	// Seed keys the pseudorandom probe order.
	Seed uint64

	// Workers bounds the parallel engine's pool: probe synthesis, the
	// chunked sweep, and the sharded catchment build. Zero means one
	// worker per CPU. The result is identical for every worker count —
	// chunk boundaries depend only on the hitlist size and merges happen
	// in chunk/shard order.
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
	// the virtual clock between passes. Each retry carries a fresh
	// sequence number, so the fault layer's loss coins are independent
	// draws and the reply fold's first-reply-wins dedup guarantees a
	// block is never counted twice. Zero (the default) disables retries
	// and leaves the probe stream byte-identical to earlier releases.
	Retries int

	// RetryBackoff is the wait before the first retry pass; it doubles
	// each pass, capped at RetryBackoffMax. Zero values take defaults.
	// The backoff must exceed the worst-case reply RTT, or in-flight
	// replies would be retried spuriously (the defaults leave ample
	// margin over the dataplane's geographic delays).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// Obs, when set, receives the round's instrumentation: probe/reply/
	// fault counters and (with tracing enabled) per-chunk sweep spans and
	// a fold span. Publication happens once per Run from totals the round
	// already accumulated — never per probe — so a nil registry (the
	// default) costs nothing and the measured output is byte-identical
	// either way. See internal/obsv.
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

// Default tuning.
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
// single-threaded simulation on a dataplane fork. The size is a constant
// — never derived from the worker count — because chunk boundaries and
// the chunk-ordered merge are what make Run's output byte-identical at
// workers=1 and workers=N.
const probeChunkTargets = 4096

// ErrConfig reports invalid measurement configuration.
var ErrConfig = errors.New("verfploeter: bad config")

func (cfg *Config) fill() error {
	if cfg.Hitlist == nil || cfg.Hitlist.Len() == 0 {
		return fmt.Errorf("%w: empty hitlist", ErrConfig)
	}
	if cfg.Net == nil || cfg.Clock == nil {
		return fmt.Errorf("%w: need Net and Clock", ErrConfig)
	}
	if cfg.NSite <= 0 {
		return fmt.Errorf("%w: NSite must be positive", ErrConfig)
	}
	if cfg.OriginSite < 0 || cfg.OriginSite >= cfg.NSite {
		return fmt.Errorf("%w: origin site %d of %d", ErrConfig, cfg.OriginSite, cfg.NSite)
	}
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.Cutoff <= 0 {
		cfg.Cutoff = DefaultCutoff
	}
	if cfg.Retries < 0 {
		return fmt.Errorf("%w: negative Retries", ErrConfig)
	}
	if cfg.Retries > 0 {
		if cfg.RetryBackoff <= 0 {
			cfg.RetryBackoff = DefaultRetryBackoff
		}
		if cfg.RetryBackoffMax < cfg.RetryBackoff {
			cfg.RetryBackoffMax = DefaultRetryBackoffMax
		}
		if cfg.RetryBackoffMax < cfg.RetryBackoff {
			cfg.RetryBackoffMax = cfg.RetryBackoff
		}
	}
	return nil
}

// Run performs one full measurement round: probe, capture, clean, map.
// It returns the catchment of every responsive block.
//
// The round executes on the parallel engine: the sweep runs as
// fixed-size chunks of the probe permutation — each chunk sends its
// probes on its own dataplane fork and virtual clock, offset
// to the time the rate limiter would reach that chunk — and replies are
// cleaned and folded by /24-block shards. Every stage merges
// deterministically, so the catchment and stats are identical for any
// Workers value.
func Run(cfg Config) (*Catchment, Stats, error) {
	if err := cfg.fill(); err != nil {
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
	// positions, hence disjoint ids, so they write sendNS without locks
	// or merges. A subset sweep fills order and pos32 for its members
	// only (see subsetMembers).
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

	// Chunked sweep: chunk c probes permutation positions [lo, hi) on a
	// fork of the data plane whose clock starts at the virtual time the
	// round's rate limiter would reach position lo, so capture
	// timestamps line up with one continuous paced sweep. Replies land
	// in the fork's reply sink in send order and are stable-sorted by
	// arrival time afterwards — byte-identical to the order the site
	// taps would have delivered them, because the virtual clock breaks
	// arrival-time ties by event creation order, which is send order.
	chunks := make([]probeChunk, nChunks)
	parallel.ForEach(cfg.Workers, nChunks, func(c int) {
		lo := c * probeChunkTargets
		hi := lo + probeChunkTargets
		if hi > n {
			hi = n
		}
		ch := &chunks[c]
		sp := chunkSpan{lo: lo, hi: hi}
		if members != nil {
			sp.incl = members[c]
		}
		span := cfg.Obs.StartSpan("sweep", c)
		clock := vclock.New()
		clock.Advance(chunkOffset(lo, cfg.Rate))
		vStart := clock.Now()
		net := cfg.Net.Fork(clock)
		// Taps gate delivery (a site without one captures nothing) but
		// the sink receives every reply parsed, so one no-op serves all.
		noTap := func([]byte) {}
		for s := 0; s < cfg.NSite; s++ {
			net.SetTap(s, noTap)
		}
		net.SetReplySink(func(site int, from ipv4.Addr, ident, seq uint16, at time.Duration) {
			if at > ch.maxAt {
				ch.maxAt = at
			}
			ch.replies = append(ch.replies, Reply{Site: site, At: at, Src: from, Ident: ident, Seq: seq})
		})
		ch.stats.Targets = sp.count()
		ch.replies = make([]Reply, 0, sp.count())
		ch.err = sweep(net, clock, &cfg, order, sp, sendNS, &ch.stats)
		if ch.err == nil && cfg.Retries > 0 {
			ch.err = retryMissing(net, clock, &cfg, order, sp, ch, pos32, sendNS)
		}
		// Drain the schedule; the sink already holds every reply
		// (including deliberately late ones — the cleaner applies the
		// cutoff on capture timestamps), so only pacing events remain.
		clock.RunUntilIdle()
		slices.SortStableFunc(ch.replies, func(a, b Reply) int { return cmp.Compare(a.At, b.At) })
		ch.end = clock.Now()
		if ch.maxAt > ch.end {
			ch.end = ch.maxAt
		}
		ch.netStats = net.Stats()
		span.Virtual(vStart, ch.end).End()
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

	foldSpan := cfg.Obs.StartSpan("fold", 0)
	catch, cstats := foldChunksSubset(chunks, cfg.Hitlist, cfg.Subset, pos32, sendNS, cfg.Retries, cfg.NSite, cfg.RoundID, cfg.Cutoff, cfg.Workers)
	foldSpan.End()
	stats.Clean = cstats
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
func chunkOffset(lo int, rate float64) time.Duration {
	return time.Duration(float64(lo) * float64(time.Second) / rate)
}

// retryMissing is the loss-aware retransmission pass for one chunk: it
// waits out the backoff on the chunk's virtual clock (letting in-flight
// replies land), re-probes every target in [lo, hi) that has not yet
// answered, and repeats with doubled backoff up to the retry budget.
// Each attempt sends a fresh sequence number, so the fault layer's loss
// coins are independent draws; recovered replies overwrite the target's
// send time so their RTTs measure the retransmission, not the lost
// original. Targets whose replies are aliased to another source keep
// being retried — exactly what a real prober, blind to the alias, would
// do. The retry pass runs entirely inside the chunk's fork, so output
// stays byte-identical at any worker count.
func retryMissing(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	order []uint32, sp chunkSpan, ch *probeChunk, pos32 []uint32, sendNS []int64) error {

	ix := cfg.Hitlist.Index()
	backoff := cfg.RetryBackoff
	answered := make([]bool, sp.hi-sp.lo)
	for attempt := 1; attempt <= cfg.Retries; attempt++ {
		clock.Advance(backoff)
		// The sink records replies at send time, stamped with their
		// arrival time; "answered so far" means arrived by now. A reply
		// whose source is a hitlist address marks that address's own
		// permutation position — which lives in this chunk unless the
		// reply was cross-block aliased, in which case it cannot match
		// any of this chunk's targets anyway.
		now := clock.Now()
		for i := range answered {
			answered[i] = false
		}
		for _, r := range ch.replies {
			if r.At > now {
				continue
			}
			id := ix.Of(r.Src.Block())
			if id < 0 || cfg.Hitlist.Entries[id].Addr != r.Src {
				continue
			}
			if p := int(pos32[id]); p >= sp.lo && p < sp.hi {
				answered[p-sp.lo] = true
			}
		}
		missing := make([]int, 0, 64)
		for k := 0; k < sp.count(); k++ {
			i := sp.pos(k)
			if !answered[i-sp.lo] {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		seqOff := uint16(attempt) * retrySeqStride
		err := pacedSend(net, clock, cfg, len(missing), func(k int) (int, ipv4.Addr, uint16) {
			i := missing[k]
			id := int(order[i])
			return id, cfg.Hitlist.Entries[id].Addr, uint16(i) + seqOff
		}, sendNS, &ch.stats)
		ch.stats.Retried += len(missing)
		if err != nil {
			return err
		}
		backoff *= 2
		if backoff > cfg.RetryBackoffMax {
			backoff = cfg.RetryBackoffMax
		}
	}
	return nil
}

// probeChunk is one chunk's slice of the round: its captured replies
// (sink-collected, stable-sorted by arrival time once the chunk
// drains), sweep stats, and final (absolute) clock value.
type probeChunk struct {
	replies []Reply
	maxAt   time.Duration
	stats   Stats
	// netStats snapshots the chunk fork's dataplane counters after the
	// sweep drains, so Run can publish fault totals without touching the
	// per-packet path.
	netStats dataplane.Stats
	end      time.Duration
	err      error
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

// notProbed is pos32's entry for an id outside Config.Subset. It lies
// past every permutation position, so retryMissing's chunk-range test
// never mistakes a reply from such an id for one of its targets.
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

// sweep sends probes for the chunk's permutation span onto the virtual
// clock, paced by a token bucket. Probes travel as parsed fields
// (SendEcho) — nothing downstream reads wire bytes, so the per-probe
// marshal/parse pair would be pure allocation.
func sweep(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	order []uint32, sp chunkSpan,
	sendNS []int64, stats *Stats) error {

	return pacedSend(net, clock, cfg, sp.count(), func(k int) (int, ipv4.Addr, uint16) {
		i := sp.pos(k)
		id := int(order[i])
		return id, cfg.Hitlist.Entries[id].Addr, uint16(i)
	}, sendNS, stats)
}

// pacedSend is the send loop under the initial sweep and the retry
// passes: it emits count probes — dense hitlist id, target address, and
// ICMP sequence supplied by tgt — paced by a token bucket on the virtual
// clock, records each send time in the sendNS column, and returns the
// first send error.
func pacedSend(net *dataplane.Net, clock *vclock.Clock, cfg *Config,
	count int, tgt func(k int) (int, ipv4.Addr, uint16),
	sendNS []int64, stats *Stats) error {

	rl := vclock.NewRateLimiter(clock, cfg.Rate, cfg.Burst)
	var firstErr error
	k := 0
	send := func() {
		for k < count && rl.Allow() {
			id, addr, seq := tgt(k)
			sendNS[id] = int64(clock.Now())
			if err := net.SendEcho(cfg.OriginSite, cfg.SourceAddr, addr, cfg.RoundID, seq); err != nil {
				stats.SendErrs++
				if firstErr == nil {
					firstErr = err
				}
			}
			stats.Sent++
			k++
		}
	}
	// Replies go to the chunk's sink at send time, so the forked clock
	// carries no events and pacing is plain arithmetic. The clock moves
	// in windows of one token delay plus a millisecond; inside a window,
	// each step jumps to the instant the next token is due and sends the
	// burst the bucket allows. The loop returns at the end of the window
	// in which the last probe went out.
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
	return firstErr
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

// foldChunks cleans and folds the chunks' replies into one catchment by
// /24-block shards. All order-dependent cleaning state — duplicate
// suppression per source, first-reply-wins per block — is keyed by the
// source's block, so sharding by that block keeps every interaction
// inside one shard, which walks the chunks in chunk order. The shard
// count therefore cannot change the result; it only sets parallel width.
func foldChunks(chunks []probeChunk, hl *hitlist.Hitlist, nSite int, roundID uint16, cutoff time.Duration, workers int) (*Catchment, CleanStats) {
	return foldChunksSubset(chunks, hl, nil, nil, nil, 0, nSite, roundID, cutoff, workers)
}

// isEchoID reports whether a reply from the hitlist address with dense
// id is that address's own echo: its sequence number matches the
// address's full-permutation position on some retry attempt. A nil
// pos32 (the raw-replies path, which has no permutation) treats every
// reply as an echo, reproducing the historic first-reply-wins fold.
func isEchoID(pos32 []uint32, id int, retries int, seq uint16) bool {
	if pos32 == nil {
		return true
	}
	d := seq - uint16(pos32[id])
	for a := 0; a <= retries; a++ {
		if d == uint16(a)*retrySeqStride {
			return true
		}
	}
	return false
}

// sentAtNS returns the send time (ns) of the probe whose reply landed in
// chunk ci for hitlist id, or -1 when no such send is visible from that
// chunk. Visibility is chunk-scoped on purpose: a chunk's capture box
// only knows its own sends, so a reply whose sequence coincidentally
// matches a target probed by a different chunk must not pick up that
// chunk's send time. (id's probes all happen in the chunk that owns its
// permutation position; subset-excluded ids are never sent, so their
// sendNS stays -1.)
func sentAtNS(sendNS []int64, pos32 []uint32, id, ci int) int64 {
	if sendNS == nil || pos32 == nil {
		return -1
	}
	if int(pos32[id])/probeChunkTargets != ci {
		return -1
	}
	return sendNS[id]
}

// foldChunksSubset is foldChunks with the sweep's target subset: the
// probed set is filtered to it, so a cross-block aliased reply from an
// unprobed block counts as unsolicited — exactly what a capture box that
// never probed the block would conclude.
//
// When pos32 is non-nil, the winner for each source is its first
// sequence-matched echo, and only echoes carry an RTT. Aliased replies
// (sequence from some other target's probe) win only when no echo ever
// arrives, and then site-only. This makes the per-block result a
// function of the round's reply *set* rather than its arrival order:
// whether an alias lands before or after the echo — which depends on
// send-time gaps that differ between a full sweep and a compact subset
// sweep — no longer changes the kept site or RTT.
//
// The fold is columnar and barrier-free: every shard writes its blocks'
// rows directly into one shared indexed catchment (shards own disjoint
// ids because they shard by block), so there is no per-shard fragment
// map and no merge pass — only a counter recount and a shard-ordered
// stats sum after the parallel region.
func foldChunksSubset(chunks []probeChunk, hl *hitlist.Hitlist, sub *ipv4.BlockSet, pos32 []uint32, sendNS []int64, retries int, nSite int, roundID uint16, cutoff time.Duration, workers int) (*Catchment, CleanStats) {
	ix := hl.Index()
	catch := NewCatchment(nSite, ix)
	if sendNS != nil {
		catch.ensureRTTs()
	}
	// seen tracks the kept reply's class per source: keptAlias entries
	// are upgraded in place when the source's echo arrives.
	const (
		unseen = iota
		keptAlias
		keptEcho
	)
	seen := make([]uint8, ix.Len())
	nShards := parallel.Workers(workers)
	stats := make([]CleanStats, nShards)
	parallel.Shards(workers, nShards, func(shard int) {
		st := &stats[shard]
		for ci := range chunks {
			for _, r := range chunks[ci].replies {
				b := r.Src.Block()
				if int(uint32(b)%uint32(nShards)) != shard {
					continue
				}
				st.Total++
				// The source was probed iff it is its block's hitlist
				// representative (and inside the subset, if any).
				id := ix.Of(b)
				probed := id >= 0 && hl.Entries[id].Addr == r.Src &&
					(sub == nil || sub.Contains(b))
				switch {
				case r.Ident != roundID:
					st.WrongRound++
				case r.At > cutoff:
					st.Late++
				case !probed:
					st.Unsolicited++
				case seen[id] == unseen:
					st.Kept++
					if isEchoID(pos32, id, retries, r.Seq) {
						seen[id] = keptEcho
						if t0 := sentAtNS(sendNS, pos32, id, ci); t0 >= 0 && int64(r.At) > t0 {
							catch.storeID(id, int16(r.Site), int64(r.At)-t0)
						} else {
							catch.storeID(id, int16(r.Site), 0)
						}
					} else {
						seen[id] = keptAlias
						catch.storeID(id, int16(r.Site), 0)
					}
				default:
					st.Duplicates++
					if seen[id] == keptAlias && isEchoID(pos32, id, retries, r.Seq) {
						seen[id] = keptEcho
						var rtt int64
						if t0 := sentAtNS(sendNS, pos32, id, ci); t0 >= 0 && int64(r.At) > t0 {
							rtt = int64(r.At) - t0
						}
						catch.storeID(id, int16(r.Site), rtt)
					}
				}
			}
		}
	})
	catch.recount()
	cs := stats[0]
	for shard := 1; shard < nShards; shard++ {
		cs.add(stats[shard])
	}
	return catch, cs
}
