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
	"slices"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
)

// Catchment maps /24 blocks to the anycast site that captured their
// replies during one measurement round, optionally with the reply's
// round-trip time (the raw material for §7's site-placement suggestion).
//
// A catchment is a pair of flat columns over a dense block index
// (colstore.Index): 2 B per indexed block for the site, 8 B only once
// any RTT is recorded, zero per-entry allocation. The index fixes which
// blocks the catchment can hold — the sweep's fold uses the hitlist's
// index, dataset readers an index of the file's blocks — and iteration
// is always in ascending block order. Writing a block outside the index
// panics, like an out-of-range site; reads and Delete treat it as
// absent.
type Catchment struct {
	NSite int

	// csites[id] is the site of block ix.At(id), -1 when unmapped; crtts
	// (lazily allocated) holds RTT nanoseconds, 0 meaning none. cn/cnrtt
	// count mapped blocks and recorded RTTs.
	ix     *colstore.Index
	csites []int16
	crtts  []int64
	cn     int
	cnrtt  int
}

// NewCatchment returns an empty catchment for nSite sites over the
// blocks of ix (a nil ix holds no blocks). The index is shared, not
// copied.
func NewCatchment(nSite int, ix *colstore.Index) *Catchment {
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
	if c.crtts == nil {
		c.crtts = make([]int64, len(c.csites))
	}
}

// mustID returns b's columnar id for a write, panicking when b is not
// indexed.
func (c *Catchment) mustID(b ipv4.Block) int {
	id := c.ix.Of(b)
	if id < 0 {
		panic(fmt.Sprintf("verfploeter: block %v outside the catchment's index", b))
	}
	return id
}

// Set records block b as belonging to site s. The first observation of a
// block wins: a block answering twice inside one round (flip mid-round)
// keeps its first site, like a first-reply-wins packet capture merge.
func (c *Catchment) Set(b ipv4.Block, s int) {
	c.SetRTT(b, s, 0)
}

// SetRTT records block b's site along with the probe's measured
// round-trip time (none when rtt <= 0). First observation wins, as with
// Set.
func (c *Catchment) SetRTT(b ipv4.Block, s int, rtt time.Duration) {
	c.checkSite(s)
	id := c.mustID(b)
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
}

// RTTOf returns the measured round-trip time for a block, if recorded.
func (c *Catchment) RTTOf(b ipv4.Block) (time.Duration, bool) {
	id := c.ix.Of(b)
	if id < 0 || c.crtts == nil || c.crtts[id] == 0 {
		return 0, false
	}
	return time.Duration(c.crtts[id]), true
}

// RTTCount returns how many blocks carry a recorded RTT.
func (c *Catchment) RTTCount() int { return c.cnrtt }

// MedianRTT returns the median recorded RTT (0 when none recorded).
func (c *Catchment) MedianRTT() time.Duration {
	if c.cnrtt == 0 {
		return 0
	}
	v := make([]time.Duration, 0, c.cnrtt)
	for _, ns := range c.crtts {
		if ns != 0 {
			v = append(v, time.Duration(ns))
		}
	}
	slices.Sort(v)
	return v[len(v)/2]
}

// Clone returns a deep copy of the catchment (the index, immutable, is
// shared).
func (c *Catchment) Clone() *Catchment {
	o := &Catchment{NSite: c.NSite, ix: c.ix, cn: c.cn, cnrtt: c.cnrtt}
	o.csites = append([]int16(nil), c.csites...)
	if c.crtts != nil {
		o.crtts = append([]int64(nil), c.crtts...)
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
	id := c.mustID(b)
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
}

// Delete removes block b — a block that went silent between epochs. A
// block outside the index is already absent, so deleting it is a no-op.
func (c *Catchment) Delete(b ipv4.Block) {
	id := c.ix.Of(b)
	if id < 0 {
		return
	}
	if c.csites[id] >= 0 {
		c.csites[id] = -1
		c.cn--
	}
	if c.crtts != nil && c.crtts[id] != 0 {
		c.crtts[id] = 0
		c.cnrtt--
	}
}

// Equal reports whether two catchments record exactly the same blocks,
// sites, and RTTs — the identity check behind the monitor's
// sample-vs-full determinism contract. Equality is content-based: two
// catchments over different indexes holding the same entries are equal.
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
	id := c.ix.Of(b)
	if id < 0 || c.csites[id] < 0 {
		return 0, false
	}
	return int(c.csites[id]), true
}

// Len returns the number of mapped blocks.
func (c *Catchment) Len() int { return c.cn }

// Counts returns mapped-block tallies per site.
func (c *Catchment) Counts() []int {
	out := make([]int, c.NSite)
	for _, s := range c.csites {
		if s >= 0 {
			out[s]++
		}
	}
	return out
}

// Fraction returns site s's share of mapped blocks (0 when empty).
func (c *Catchment) Fraction(s int) float64 {
	if c.cn == 0 {
		return 0
	}
	n := 0
	for _, v := range c.csites {
		if v >= 0 && int(v) == s {
			n++
		}
	}
	return float64(n) / float64(c.cn)
}

// Range iterates the mapped blocks in ascending block order; return
// false to stop.
func (c *Catchment) Range(fn func(b ipv4.Block, site int) bool) {
	for id, s := range c.csites {
		if s >= 0 && !fn(c.ix.At(id), int(s)) {
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
		if !fn(c.ix.At(id), int(s), time.Duration(c.rttAt(id))) {
			return
		}
	}
}

// Blocks returns the mapped blocks in ascending order — for
// deterministic reports.
func (c *Catchment) Blocks() []ipv4.Block {
	out := make([]ipv4.Block, 0, c.cn)
	c.Range(func(b ipv4.Block, _ int) bool {
		out = append(out, b)
		return true
	})
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

// ChangedBlocks lists, in ascending order, every block whose entry
// differs between prev and cur: mapped in one and not the other, or
// mapped in both with another site or RTT. It is one merge pass over
// the two catchments' columns; the indexes may differ.
func ChangedBlocks(prev, cur *Catchment) []ipv4.Block {
	var out []ipv4.Block
	pb, cb := prev.ix.Blocks(), cur.ix.Blocks()
	i, j := 0, 0
	for i < len(pb) || j < len(cb) {
		switch {
		case j == len(cb) || i < len(pb) && pb[i] < cb[j]:
			if prev.csites[i] >= 0 {
				out = append(out, pb[i])
			}
			i++
		case i == len(pb) || cb[j] < pb[i]:
			if cur.csites[j] >= 0 {
				out = append(out, cb[j])
			}
			j++
		default:
			ps, cs := prev.csites[i], cur.csites[j]
			if ps != cs || ps >= 0 && prev.rttAt(i) != cur.rttAt(j) {
				out = append(out, pb[i])
			}
			i++
			j++
		}
	}
	return out
}

// rttAt returns id's RTT in nanoseconds, 0 when none is recorded.
func (c *Catchment) rttAt(id int) int64 {
	if c.crtts == nil {
		return 0
	}
	return c.crtts[id]
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
