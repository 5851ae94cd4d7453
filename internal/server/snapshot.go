// Package server turns the library into a long-running multi-tenant
// measurement service — the operational form both the Tangled testbed
// (service behind an API) and the anycast-agility playbook assume.
// Each tenant owns a deployment and a stepwise monitoring session
// (internal/monitor.Session) on the virtual clock; every completed
// epoch publishes an immutable Snapshot — flat columnar state over a
// sorted block index — swapped in with one atomic pointer store, so the
// query path answers "which site catches this address?" at millions of
// lookups per second without ever taking a lock, and an epoch swap can
// never stall or tear a reader: a request observes exactly one epoch's
// site, load, and annotation state, whichever pointer it loaded.
package server

import (
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/loadmodel"
	"verfploeter/internal/querylog"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// SiteLoad is one site's standing in a snapshot: block count, block and
// load shares, and utilization against the tenant's declared capacity.
type SiteLoad struct {
	Code string
	// Blocks is the number of /24 blocks the site catches; BlockShare
	// its fraction of the mapped blocks.
	Blocks     int
	BlockShare float64
	// LoadShare is the site's share of predicted query load when the
	// tenant has a query log (§3.2's load weighting); equal to
	// BlockShare otherwise.
	LoadShare float64
	// LoadQPD is the predicted queries/day landing on the site (0
	// without a log); CapacityQPD the tenant-declared ceiling (0 =
	// undeclared); Utilization their ratio.
	LoadQPD     float64
	CapacityQPD float64
	Utilization float64
}

// LookupResult answers one catchment query, annotated the way the
// paper's analyses slice catchments: serving site with the measured
// RTT, plus the origin AS and country of the block.
type LookupResult struct {
	Epoch    int
	Block    ipv4.Block
	Site     int
	SiteCode string
	// RTT is the round-trip time measured for the block's probe (0 =
	// reply carried no usable RTT, e.g. an aliased observation).
	RTT     time.Duration
	ASN     uint32
	ASName  string
	Country string
}

// Snapshot is one epoch's immutable read state: the catchment flattened
// into columns over a sorted /24 block index (the anycast analogue of a
// longest-prefix match — catchments are /24-grained, so LPM collapses
// to one binary search over the block column), per-block AS/country
// annotation ids resolved against the shared immutable topology, and
// the per-site load table. Snapshots are never mutated after Build;
// readers may share one freely across goroutines.
type Snapshot struct {
	Tenant   string
	Scenario string
	Epoch    int
	// VTime is the tenant's virtual-clock time when the epoch
	// completed; Swept marks a snapshot produced by an operator-forced
	// full re-probe (POST .../sweep) rather than the regular cadence.
	VTime time.Duration
	Swept bool

	// Columns, aligned to ix: the catchment site, RTT nanoseconds (0 =
	// none), owning-AS index, and country index of block ix.At(i).
	ix    *colstore.Index
	sites []int16
	rttNS []int64
	asIdx []int32
	cnIdx []uint16

	top *topology.Topology

	// Sites is the per-site load table; TotalQPD the tenant log's daily
	// query volume (0 without a log).
	Sites    []SiteLoad
	TotalQPD float64

	// fp is the build-time integrity fingerprint over the columns; the
	// concurrency tests recompute it mid-hammer to prove a reader can
	// never observe a half-swapped snapshot.
	fp uint64
}

// BuildSnapshot flattens one epoch's catchment into an immutable read
// snapshot. Cost is one pass over the mapped blocks, which Blocks()
// returns already ascending, with a few binary searches per block (its
// site, RTT, and topology entry): O(n log n) in all. The read path then
// never touches the catchment again.
func BuildSnapshot(tenant string, epoch int, swept bool, scn *scenario.Scenario,
	c *verfploeter.Catchment, log *querylog.Log, capacity []float64) *Snapshot {

	blocks := c.Blocks() // ascending, unique
	sn := &Snapshot{
		Tenant:   tenant,
		Scenario: scn.Name,
		Epoch:    epoch,
		VTime:    scn.Clock.Now(),
		Swept:    swept,
		ix:       colstore.NewIndex(blocks),
		sites:    make([]int16, len(blocks)),
		rttNS:    make([]int64, len(blocks)),
		asIdx:    make([]int32, len(blocks)),
		cnIdx:    make([]uint16, len(blocks)),
		top:      scn.Top,
	}
	fp := fpSeed ^ uint64(epoch)
	for i, b := range blocks {
		site, _ := c.SiteOf(b)
		rtt, _ := c.RTTOf(b)
		sn.sites[i] = int16(site)
		sn.rttNS[i] = int64(rtt)
		if ti := scn.Top.BlockIndex(b); ti >= 0 {
			bi := &scn.Top.Blocks[ti]
			sn.asIdx[i] = bi.ASIdx
			sn.cnIdx[i] = bi.CountryIdx
		} else {
			sn.asIdx[i] = -1
		}
		fp = fpMix(fp, uint64(b)<<16|uint64(uint16(site)))
	}

	counts := c.Counts()
	var est *loadmodel.Estimate
	if log != nil {
		est = loadmodel.Predict(c, log, loadmodel.ByQueries)
		sn.TotalQPD = log.TotalQPD()
	}
	sn.Sites = make([]SiteLoad, len(scn.Sites))
	for s := range scn.Sites {
		sl := SiteLoad{Code: scn.Sites[s].Code, Blocks: counts[s]}
		if n := c.Len(); n > 0 {
			sl.BlockShare = float64(counts[s]) / float64(n)
		}
		sl.LoadShare = sl.BlockShare
		if est != nil {
			sl.LoadShare = est.Fraction(s)
			sl.LoadQPD = est.BySite[s]
		}
		if s < len(capacity) && capacity[s] > 0 {
			sl.CapacityQPD = capacity[s]
			sl.Utilization = sl.LoadQPD / capacity[s]
		}
		sn.Sites[s] = sl
		fp = fpMix(fp, uint64(counts[s]))
	}
	sn.fp = fp
	return sn
}

// Lookup answers "which site catches this address?" from the snapshot
// alone: one binary search over the block column plus array reads.
// ok is false when the address's /24 block is unmapped in this epoch.
// The hot path allocates nothing; the returned strings alias the
// snapshot's and topology's immutable tables.
func (sn *Snapshot) Lookup(a ipv4.Addr) (LookupResult, bool) {
	id := sn.ix.Of(a.Block())
	if id < 0 {
		return LookupResult{Epoch: sn.Epoch, Site: -1}, false
	}
	r := LookupResult{
		Epoch:    sn.Epoch,
		Block:    sn.ix.At(id),
		Site:     int(sn.sites[id]),
		SiteCode: sn.Sites[sn.sites[id]].Code,
		RTT:      time.Duration(sn.rttNS[id]),
	}
	if ai := sn.asIdx[id]; ai >= 0 {
		as := &sn.top.ASes[ai]
		r.ASN = as.ASN
		r.ASName = as.Name
		r.Country = topology.Countries[sn.cnIdx[id]].Code
	}
	return r, true
}

// Len returns the number of mapped blocks in the snapshot.
func (sn *Snapshot) Len() int { return sn.ix.Len() }

// Blocks returns the snapshot's sorted mapped blocks (read-only).
func (sn *Snapshot) Blocks() []ipv4.Block { return sn.ix.Blocks() }

// CheckIntegrity recomputes the build-time fingerprint over the columns
// and site table. It can only fail if a reader ever observed a torn or
// half-initialized snapshot — the property the atomic-swap contract
// promises can't happen, and the race tests hammer.
func (sn *Snapshot) CheckIntegrity() bool {
	fp := fpSeed ^ uint64(sn.Epoch)
	for i, b := range sn.ix.Blocks() {
		fp = fpMix(fp, uint64(b)<<16|uint64(uint16(sn.sites[i])))
	}
	for _, sl := range sn.Sites {
		fp = fpMix(fp, uint64(sl.Blocks))
	}
	return fp == sn.fp
}

const fpSeed = 0x5e4fe12a9c37d81b

// fpMix folds v into the running fingerprint (splitmix64 finalizer).
func fpMix(h, v uint64) uint64 {
	x := h ^ v*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
