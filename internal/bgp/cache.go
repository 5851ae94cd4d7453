package bgp

// Converged-table cache. The pipeline's callers revisit announcement
// configurations constantly: the §6.1 prepend sweep returns to baseline
// between cases, ext-ddos and ext-testprefix re-evaluate overlapping
// plans, and Scenario.Fork across the experiment suite re-derives identical
// tables from the same shared topology. A converged *Table (and its
// default Assignment) is a pure function of (topology identity,
// announcement set, epoch), so those repeats are O(1) hits here.
//
// Keying: topology identity is the *Topology pointer plus its Finalize
// generation — a scenario that mutates the graph and re-Finalizes moves
// the generation, so stale tables can never be served (see
// topology.Generation). Announcements are canonicalized into a binary
// fingerprint of every field in order; order is deliberately significant
// because it is part of the converged output (heap seeding order breaks
// ties). The epoch is part of the key, never ignored: epochs re-roll
// tie-breaks, so tables must not leak across them.
//
// SetRouteCache(false) bypasses the cache entirely (the escape hatch the
// byte-identity tests diff against).

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"verfploeter/internal/parallel"
	"verfploeter/internal/topology"
)

// routeCacheCap bounds the number of retained tables. Tables are the
// dominant memory consumer per entry (per-AS candidate slices); 64 covers
// every sweep in the experiment suite with room to spare.
const routeCacheCap = 64

type tableKey struct {
	top   *topology.Topology
	gen   uint64
	epoch uint64
	anns  string // canonical announcement fingerprint
}

type tableEntry struct {
	key  tableKey
	tbl  *Table
	elem *list.Element

	// The default Assignment is memoized per cached table: Assign is
	// deterministic given the table, and every ReannounceEpoch wants it.
	// Memoization lives here, NOT on Table — Table.Assign must keep
	// recomputing for callers that legitimately mutate Cands (tests
	// exercising candidate-order independence do).
	asgOnce sync.Once
	asg     *Assignment
	// asgReady publishes asg to lock-free readers (the delta path reads a
	// predecessor's memoized assignment without holding the cache lock).
	asgReady atomic.Bool
}

func (e *tableEntry) assignment() *Assignment {
	e.asgOnce.Do(func() { e.asg = e.tbl.Assign() })
	e.asgReady.Store(true)
	return e.asg
}

var routeCacheOff atomic.Bool
var routeDeltaOff atomic.Bool

// SetRouteCache enables or disables the converged-table cache and
// returns the previous setting. Disabling does not drop existing
// entries; use ResetRouteCache for that.
func SetRouteCache(on bool) bool {
	return !routeCacheOff.Swap(!on)
}

// SetRouteDelta enables or disables incremental recomputation on cache
// misses and returns the previous setting. Off, every miss is a cold
// ComputeEpoch — the escape hatch the delta byte-identity tests diff
// against. Note the delta path also needs the cache itself: with the
// cache off there are no predecessor tables, so deltas are implicitly
// off too.
func SetRouteDelta(on bool) bool {
	return !routeDeltaOff.Swap(!on)
}

var routeCache = struct {
	mu     sync.Mutex
	m      map[tableKey]*tableEntry
	order  *list.List // front = most recently used; values are *tableEntry
	hits   uint64
	misses uint64
}{m: map[tableKey]*tableEntry{}, order: list.New()}

// RouteCacheStats reports cumulative cache hits and misses.
func RouteCacheStats() (hits, misses uint64) {
	routeCache.mu.Lock()
	defer routeCache.mu.Unlock()
	return routeCache.hits, routeCache.misses
}

// ResetRouteCache drops every cached table and zeroes the stats.
func ResetRouteCache() {
	routeCache.mu.Lock()
	defer routeCache.mu.Unlock()
	routeCache.m = map[tableKey]*tableEntry{}
	routeCache.order = list.New()
	routeCache.hits, routeCache.misses = 0, 0
}

// annFingerprint canonicalizes an announcement set into the cache key.
// Every field is encoded, floats by their exact bit patterns, in slice
// order (order matters to the converged result — see package comment).
func annFingerprint(anns []Announcement) string {
	buf := make([]byte, 0, len(anns)*36)
	var w [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	for _, a := range anns {
		put64(uint64(a.Site))
		put64(uint64(a.UpstreamASN))
		put64(math.Float64bits(a.Lat))
		put64(math.Float64bits(a.Lon))
		put64(uint64(a.Prepend))
	}
	return string(buf)
}

// ComputeEpochCached is ComputeEpoch plus the table cache: it returns the
// converged table and its default Assignment, computing both at most once
// per (topology identity, announcement fingerprint, epoch). The returned
// table and assignment are shared — callers must treat them as immutable
// (which Scenario already does; tests that mutate tables go through
// ComputeEpoch).
func ComputeEpochCached(top *topology.Topology, anns []Announcement, epoch uint64) (*Table, *Assignment) {
	if routeCacheOff.Load() {
		tbl := ComputeEpoch(top, anns, epoch)
		return tbl, tbl.Assign()
	}
	key := tableKey{top: top, gen: top.Generation(), epoch: epoch, anns: annFingerprint(anns)}

	routeCache.mu.Lock()
	if e, ok := routeCache.m[key]; ok {
		routeCache.hits++
		routeCache.order.MoveToFront(e.elem)
		routeCache.mu.Unlock()
		if o := obsHooks.Load(); o != nil {
			o.cacheHits.Inc()
		}
		return e.tbl, e.assignment()
	}
	routeCache.misses++
	// Predecessor scan for the delta path: the most recently used cached
	// table on the same (topology, generation, epoch) — announcement
	// sweeps and monitor escalations always have one — seeds an
	// incremental recompute instead of a cold convergence. Its memoized
	// assignment, when already materialized, likewise seeds AssignDelta.
	var pred *Table
	var predAsg *Assignment
	if !routeDeltaOff.Load() {
		for el := routeCache.order.Front(); el != nil; el = el.Next() {
			pe := el.Value.(*tableEntry)
			if pe.key.top == top && pe.key.gen == key.gen && pe.key.epoch == epoch {
				pred = pe.tbl
				if pe.asgReady.Load() {
					predAsg = pe.asg
				}
				break
			}
		}
	}
	routeCache.mu.Unlock()
	if o := obsHooks.Load(); o != nil {
		o.cacheMisses.Inc()
	}

	// Compute outside the lock: concurrent scenarios (experiment workers
	// on distinct forks) must not serialize on one convergence. Losing a
	// rare duplicate-compute race just means one redundant table; the
	// first insert wins so all callers converge on one shared entry.
	// The announcement slice is copied defensively — callers (the prepend
	// sweep, property tests) reuse and mutate their backing arrays, and a
	// cached table must keep a stable Anns snapshot matching its key.
	annsCopy := make([]Announcement, len(anns))
	copy(annsCopy, anns)
	var tbl *Table
	if pred != nil {
		tbl = ComputeDelta(pred, annsCopy)
	} else {
		tbl = ComputeEpoch(top, annsCopy, epoch)
	}

	routeCache.mu.Lock()
	e, ok := routeCache.m[key]
	if !ok {
		e = &tableEntry{key: key, tbl: tbl}
		e.elem = routeCache.order.PushFront(e)
		routeCache.m[key] = e
		for len(routeCache.m) > routeCacheCap {
			back := routeCache.order.Back()
			victim := back.Value.(*tableEntry)
			routeCache.order.Remove(back)
			delete(routeCache.m, victim.key)
			if o := obsHooks.Load(); o != nil {
				o.cacheEvictions.Inc()
			}
		}
	} else {
		routeCache.order.MoveToFront(e.elem)
	}
	routeCache.mu.Unlock()
	// Delta-derived assignment only when this goroutine's table won the
	// insert race: tbl.Changed is relative to *its* predecessor, and a
	// race loser's entry holds someone else's (byte-identical) table.
	if e.tbl == tbl && tbl.Changed != nil && predAsg != nil {
		e.asgOnce.Do(func() { e.asg = tbl.AssignDelta(predAsg) })
		e.asgReady.Store(true)
		return e.tbl, e.asg
	}
	return e.tbl, e.assignment()
}

// ComputeBatch evaluates many candidate announcement sets over the same
// (topology, epoch) on up to workers goroutines, returning tables and
// assignments index-aligned with cands. It exists for the playbook
// planner: cands[0] — by convention the currently deployed configuration
// — is computed first and alone, so it is cached before the fan-out and
// every other candidate's miss finds a same-epoch predecessor and takes
// the ComputeDelta path. Results are shared cache entries; callers must
// treat them as immutable. Output depends only on (top, cands, epoch),
// never on workers.
func ComputeBatch(top *topology.Topology, cands [][]Announcement, epoch uint64, workers int) ([]*Table, []*Assignment) {
	tbls := make([]*Table, len(cands))
	asgs := make([]*Assignment, len(cands))
	if len(cands) == 0 {
		return tbls, asgs
	}
	tbls[0], asgs[0] = ComputeEpochCached(top, cands[0], epoch)
	rest := len(cands) - 1
	if rest > 0 {
		parallel.ForEach(workers, rest, func(i int) {
			tbls[i+1], asgs[i+1] = ComputeEpochCached(top, cands[i+1], epoch)
		})
	}
	return tbls, asgs
}
