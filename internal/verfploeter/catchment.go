// Package verfploeter implements the paper's primary contribution: anycast
// catchment mapping by active probing from the anycast service itself
// (§3.1).
//
// Rather than deploying physical vantage points that query the service,
// Verfploeter sends ICMP Echo Requests sourced from an address inside the
// anycast prefix to one representative per /24 block (the hitlist). Each
// reply is routed by BGP to whichever anycast site serves that block — so
// the site that captures the reply identifies the block's catchment, and
// every ping-responsive host on the Internet becomes a free, passive
// vantage point. The packet flow:
//
//	prober (site s0)             passive VP (block b)         site s?
//	  echo request, src=anycast ───────────▶ replies
//	                                            └── echo reply, dst=anycast ──▶ captured at b's
//	                                                                            catchment site
//
// The package provides the prober, the in-process reply capture that
// stands in for §3.1's per-site collectors, the data-cleaning pass of §4,
// and the Catchment table the analyses consume.
package verfploeter

import (
	"fmt"
	"sort"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
)

// Catchment maps /24 blocks to the anycast site that captured their
// replies during one measurement round, optionally with the reply's
// round-trip time (the raw material for §7's site-placement suggestion).
//
// Storage is dual-mode. A catchment built over a dense block index
// (NewIndexedCatchment — what the sweep's fold produces) keeps sites and
// RTTs in flat columns keyed by the index's id: 2 B per indexed block
// for the site, 8 B only if any RTT is recorded, zero per-entry
// allocation, deterministic ascending iteration. Blocks outside the
// index — and every entry of a plain NewCatchment — live in a small map
// tail, so delta replay (monitoring epochs reassigning blocks that later
// fell out of the hitlist) and legacy callers keep working unchanged.
// All methods observe the union of both parts; two catchments are Equal
// based on content, regardless of which mode holds each entry.
type Catchment struct {
	NSite int

	// Columnar part, present when ix != nil. csites[id] is the site of
	// block ix.At(id), -1 when unmapped; crtts (lazily allocated) holds
	// RTT nanoseconds, 0 meaning none. cn/cnrtt count mapped blocks and
	// recorded RTTs in the columns.
	ix     *colstore.Index
	csites []int16
	crtts  []int64
	cn     int
	cnrtt  int

	// Map tail: entries for blocks not covered by ix (all entries, in
	// map-only mode). Lazily allocated.
	sites map[ipv4.Block]int16
	rtts  map[ipv4.Block]time.Duration
}

// NewCatchment returns an empty map-backed catchment table for nSite
// sites — the right choice for small or sparse tables (dataset readers,
// consensus builders, tests).
func NewCatchment(nSite int) *Catchment {
	return &Catchment{NSite: nSite, sites: make(map[ipv4.Block]int16)}
}

// NewIndexedCatchment returns an empty catchment whose entries for
// blocks in ix are stored columnarly. The index is shared, not copied.
func NewIndexedCatchment(nSite int, ix *colstore.Index) *Catchment {
	c := &Catchment{NSite: nSite, ix: ix, csites: make([]int16, ix.Len())}
	for i := range c.csites {
		c.csites[i] = -1
	}
	return c
}

func (c *Catchment) checkSite(s int) {
	if s < 0 || s >= c.NSite {
		panic(fmt.Sprintf("verfploeter: site %d out of range 0..%d", s, c.NSite-1))
	}
}

// ensureRTTs materializes the RTT column (all-zero = none recorded).
func (c *Catchment) ensureRTTs() {
	if c.crtts == nil && c.ix != nil {
		c.crtts = make([]int64, c.ix.Len())
	}
}

// id returns the columnar id for b, or -1 when b lives in the map tail.
func (c *Catchment) id(b ipv4.Block) int {
	if c.ix == nil {
		return -1
	}
	return c.ix.Of(b)
}

// Set records block b as belonging to site s. The first observation of a
// block wins: a block answering twice inside one round (flip mid-round)
// keeps its first site, like a first-reply-wins packet capture merge.
func (c *Catchment) Set(b ipv4.Block, s int) {
	c.checkSite(s)
	if id := c.id(b); id >= 0 {
		if c.csites[id] < 0 {
			c.csites[id] = int16(s)
			c.cn++
		}
		return
	}
	if c.sites == nil {
		c.sites = make(map[ipv4.Block]int16)
	}
	if _, ok := c.sites[b]; !ok {
		c.sites[b] = int16(s)
	}
}

// SetRTT records block b's site along with the probe's measured
// round-trip time. First observation wins, as with Set.
func (c *Catchment) SetRTT(b ipv4.Block, s int, rtt time.Duration) {
	c.checkSite(s)
	if id := c.id(b); id >= 0 {
		if c.csites[id] >= 0 {
			return
		}
		c.csites[id] = int16(s)
		c.cn++
		if rtt > 0 {
			c.ensureRTTs()
			c.crtts[id] = int64(rtt)
			c.cnrtt++
		}
		return
	}
	if _, ok := c.sites[b]; ok {
		return
	}
	if c.sites == nil {
		c.sites = make(map[ipv4.Block]int16)
	}
	c.sites[b] = int16(s)
	if rtt > 0 {
		if c.rtts == nil {
			c.rtts = make(map[ipv4.Block]time.Duration)
		}
		c.rtts[b] = rtt
	}
}

// RTTOf returns the measured round-trip time for a block, if recorded.
func (c *Catchment) RTTOf(b ipv4.Block) (time.Duration, bool) {
	if id := c.id(b); id >= 0 {
		if c.crtts == nil || c.crtts[id] == 0 {
			return 0, false
		}
		return time.Duration(c.crtts[id]), true
	}
	d, ok := c.rtts[b]
	return d, ok
}

// RTTCount returns how many blocks carry a recorded RTT.
func (c *Catchment) RTTCount() int { return c.cnrtt + len(c.rtts) }

// MedianRTT returns the median recorded RTT (0 when none recorded).
func (c *Catchment) MedianRTT() time.Duration {
	n := c.RTTCount()
	if n == 0 {
		return 0
	}
	v := make([]time.Duration, 0, n)
	for _, ns := range c.crtts {
		if ns != 0 {
			v = append(v, time.Duration(ns))
		}
	}
	for _, d := range c.rtts {
		v = append(v, d)
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

// Clone returns a deep copy of the catchment (the index, immutable, is
// shared).
func (c *Catchment) Clone() *Catchment {
	o := &Catchment{NSite: c.NSite, ix: c.ix, cn: c.cn, cnrtt: c.cnrtt}
	if c.csites != nil {
		o.csites = make([]int16, len(c.csites))
		copy(o.csites, c.csites)
	}
	if c.crtts != nil {
		o.crtts = make([]int64, len(c.crtts))
		copy(o.crtts, c.crtts)
	}
	if c.sites != nil {
		o.sites = make(map[ipv4.Block]int16, len(c.sites))
		for b, s := range c.sites {
			o.sites[b] = s
		}
	}
	if len(c.rtts) > 0 {
		o.rtts = make(map[ipv4.Block]time.Duration, len(c.rtts))
		for b, d := range c.rtts {
			o.rtts[b] = d
		}
	}
	return o
}

// Reassign overwrites block b's entry with site s, recording rtt when
// positive and clearing any stale RTT otherwise. Unlike Set, the last
// write wins — this is the primitive delta replay needs: applying an
// epoch's flip set on top of an earlier map must overwrite the stale
// entry, not keep it.
func (c *Catchment) Reassign(b ipv4.Block, s int, rtt time.Duration) {
	c.checkSite(s)
	if id := c.id(b); id >= 0 {
		if c.csites[id] < 0 {
			c.cn++
		}
		c.csites[id] = int16(s)
		if rtt > 0 {
			c.ensureRTTs()
			if c.crtts[id] == 0 {
				c.cnrtt++
			}
			c.crtts[id] = int64(rtt)
		} else if c.crtts != nil && c.crtts[id] != 0 {
			c.crtts[id] = 0
			c.cnrtt--
		}
		return
	}
	if c.sites == nil {
		c.sites = make(map[ipv4.Block]int16)
	}
	c.sites[b] = int16(s)
	if rtt > 0 {
		if c.rtts == nil {
			c.rtts = make(map[ipv4.Block]time.Duration)
		}
		c.rtts[b] = rtt
	} else {
		delete(c.rtts, b)
	}
}

// Delete removes block b — a block that went silent between epochs.
func (c *Catchment) Delete(b ipv4.Block) {
	if id := c.id(b); id >= 0 {
		if c.csites[id] >= 0 {
			c.csites[id] = -1
			c.cn--
		}
		if c.crtts != nil && c.crtts[id] != 0 {
			c.crtts[id] = 0
			c.cnrtt--
		}
		return
	}
	delete(c.sites, b)
	delete(c.rtts, b)
}

// Equal reports whether two catchments record exactly the same blocks,
// sites, and RTTs — the identity check behind the monitor's
// sample-vs-full determinism contract. Equality is content-based: a
// columnar catchment and a map-backed one holding the same entries are
// equal.
func (c *Catchment) Equal(o *Catchment) bool {
	if c.NSite != o.NSite || c.Len() != o.Len() || c.RTTCount() != o.RTTCount() {
		return false
	}
	eq := true
	c.rangeRTT(func(b ipv4.Block, s int, rtt time.Duration) bool {
		os, ok := o.SiteOf(b)
		if !ok || os != s {
			eq = false
			return false
		}
		// Lengths match, so comparing c's RTT (0 = none) against o's is a
		// full bijection check.
		if ortt, _ := o.RTTOf(b); ortt != rtt {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// SiteOf returns the catchment site for a block.
func (c *Catchment) SiteOf(b ipv4.Block) (int, bool) {
	if id := c.id(b); id >= 0 {
		if s := c.csites[id]; s >= 0 {
			return int(s), true
		}
		return 0, false
	}
	s, ok := c.sites[b]
	return int(s), ok
}

// Len returns the number of mapped blocks.
func (c *Catchment) Len() int { return c.cn + len(c.sites) }

// Counts returns mapped-block tallies per site.
func (c *Catchment) Counts() []int {
	out := make([]int, c.NSite)
	for _, s := range c.csites {
		if s >= 0 {
			out[s]++
		}
	}
	for _, s := range c.sites {
		out[s]++
	}
	return out
}

// Fraction returns site s's share of mapped blocks (0 when empty).
func (c *Catchment) Fraction(s int) float64 {
	total := c.Len()
	if total == 0 {
		return 0
	}
	n := 0
	for _, v := range c.csites {
		if v >= 0 && int(v) == s {
			n++
		}
	}
	for _, v := range c.sites {
		if int(v) == s {
			n++
		}
	}
	return float64(n) / float64(total)
}

// Range iterates the catchment; return false to stop. Columnar entries
// come first, in ascending block order; map-tail entries follow in map
// order. Consumers must not depend on order beyond that (and never
// could: map-only catchments iterate in randomized map order).
func (c *Catchment) Range(fn func(b ipv4.Block, site int) bool) {
	for id, s := range c.csites {
		if s >= 0 && !fn(c.ix.At(id), int(s)) {
			return
		}
	}
	for b, s := range c.sites {
		if !fn(b, int(s)) {
			return
		}
	}
}

// rangeRTT iterates entries with their recorded RTT (0 when none).
func (c *Catchment) rangeRTT(fn func(b ipv4.Block, site int, rtt time.Duration) bool) {
	for id, s := range c.csites {
		if s < 0 {
			continue
		}
		var rtt time.Duration
		if c.crtts != nil {
			rtt = time.Duration(c.crtts[id])
		}
		if !fn(c.ix.At(id), int(s), rtt) {
			return
		}
	}
	for b, s := range c.sites {
		if !fn(b, int(s), c.rtts[b]) {
			return
		}
	}
}

// Blocks returns the mapped blocks, sorted — for deterministic reports.
func (c *Catchment) Blocks() []ipv4.Block {
	out := make([]ipv4.Block, 0, c.Len())
	for id, s := range c.csites {
		if s >= 0 {
			out = append(out, c.ix.At(id))
		}
	}
	tail := len(out)
	for b := range c.sites {
		out = append(out, b)
	}
	if tail < len(out) {
		// The columnar prefix is already ascending; a map tail forces a
		// full re-sort of the union.
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}

// storeID is the fold's raceless columnar write: it records (site, rtt)
// for columnar id without touching the shared counters, overwriting any
// previous entry (rttNS <= 0 clears). Shards writing disjoint ids may
// call it concurrently, provided csites — and crtts, when any RTT will
// be recorded — are pre-allocated; the caller must recount() afterwards.
func (c *Catchment) storeID(id int, site int16, rttNS int64) {
	c.csites[id] = site
	if c.crtts != nil {
		if rttNS > 0 {
			c.crtts[id] = rttNS
		} else {
			c.crtts[id] = 0
		}
	}
}

// recount rebuilds cn/cnrtt after a storeID phase.
func (c *Catchment) recount() {
	cn, cnrtt := 0, 0
	for _, s := range c.csites {
		if s >= 0 {
			cn++
		}
	}
	for _, ns := range c.crtts {
		if ns != 0 {
			cnrtt++
		}
	}
	c.cn, c.cnrtt = cn, cnrtt
}

// DiffStats classifies every VP across two consecutive rounds the way
// Figure 9 does: stable (same site twice), flipped (site changed), to-NR
// (answered then went silent), from-NR (newly answering).
type DiffStats struct {
	Stable  int
	Flipped int
	ToNR    int
	FromNR  int
}

// Diff compares consecutive rounds prev → cur.
func Diff(prev, cur *Catchment) DiffStats {
	var d DiffStats
	prev.Range(func(b ipv4.Block, ps int) bool {
		if cs, ok := cur.SiteOf(b); ok {
			if cs == ps {
				d.Stable++
			} else {
				d.Flipped++
			}
		} else {
			d.ToNR++
		}
		return true
	})
	d.FromNR = cur.Len() - d.Stable - d.Flipped
	return d
}
