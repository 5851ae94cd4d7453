// Package topology builds and holds the synthetic AS-level Internet the
// simulator routes over: autonomous systems with business relationships
// (customer/provider/peer, Gao–Rexford style), multi-PoP footprints for
// large networks, originated prefixes, and per-/24-block metadata
// (geolocation, ping responsiveness, user density).
//
// The paper measures the real Internet; this package is its stand-in
// (see DESIGN.md §2). Everything is generated deterministically from one
// seed so measurements and benchmark tables are reproducible.
package topology

import (
	"fmt"
	"math"
	"sort"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/rng"
)

// Class categorizes an AS's role in the hierarchy.
type Class uint8

const (
	// Tier1 ASes form a full-mesh peering clique at the top.
	Tier1 Class = iota
	// Transit ASes buy from tier-1s (or other transits) and sell to stubs.
	Transit
	// Stub ASes originate prefixes and buy transit; they have no customers
	// at generation time (scenario code may attach service ASes below them).
	Stub
)

func (c Class) String() string {
	switch c {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// PoP is a point of presence: somewhere an AS has routers and customers.
// Blocks attach to PoPs; hot-potato routing picks egress per PoP, which is
// what splits large ASes across anycast catchments (§6.2).
type PoP struct {
	CountryIdx int
	Lat, Lon   float64
}

// AS is one autonomous system.
type AS struct {
	ASN        uint32
	Name       string // short label for reports; may be empty
	Class      Class
	CountryIdx int   // primary country
	PoPs       []PoP // at least one

	// Relationships, by ASN. A link appears on both sides: if B is in
	// A.Customers then A is in B.Providers.
	Providers []uint32
	Peers     []uint32
	Customers []uint32

	// Prefixes originated by this AS, longest list for giant eyeballs.
	Prefixes []ipv4.Prefix

	// FlapWeight > 0 marks the AS as prone to catchment flipping
	// (load-balanced or unstable egress links, §6.3). The value scales
	// the per-round flip probability of its blocks.
	FlapWeight float64
	// IgnorePrepend marks ASes that disregard AS-path prepending when
	// selecting routes (§6.1 observes a residual fraction at MIA+3).
	IgnorePrepend bool
}

// BlockInfo is the per-/24 metadata the measurement and load pipelines
// consume. Kept small: a Large topology holds hundreds of thousands.
type BlockInfo struct {
	Block      ipv4.Block
	ASIdx      int32  // index into Topology.ASes
	PoP        uint8  // index into the owning AS's PoPs
	PrefixIdx  uint16 // index into the owning AS's Prefixes
	CountryIdx uint16
	Lat, Lon   float32
	// Responsive is the probability a ping to the block's hitlist
	// representative is answered in a given round (the paper sees ~55%
	// of blocks respond, Table 4).
	Responsive float32
	// UserWeight is relative user density behind the block; the query
	// log generator turns it into load. NAT-heavy countries get more
	// users per block (§5.4's India observation).
	UserWeight float32
}

// Topology is the finished Internet graph. Treat as immutable after
// Finalize; concurrent readers are safe.
type Topology struct {
	ASes   []AS
	Blocks []BlockInfo // sorted by Block

	byASN    map[uint32]int
	blockIdx *colstore.Index
	rib      ipv4.Trie // announced prefix -> AS index
	gen      uint64    // Finalize count; see Generation
}

// Generation counts Finalize calls. Caches keyed by a *Topology (the BGP
// session-geometry and converged-table caches) store the generation at
// build time and rebuild when it moves, so a scenario that mutates the
// graph (AddAS/Link) and re-Finalizes never sees stale derived state.
func (t *Topology) Generation() uint64 { return t.gen }

// ASIndex returns the index of asn in ASes, or -1.
func (t *Topology) ASIndex(asn uint32) int {
	if i, ok := t.byASN[asn]; ok {
		return i
	}
	return -1
}

// ASByASN returns the AS with the given number, or nil.
func (t *Topology) ASByASN(asn uint32) *AS {
	if i, ok := t.byASN[asn]; ok {
		return &t.ASes[i]
	}
	return nil
}

// BlockIndex returns the index of b in Blocks, or -1 if the block is not
// part of the generated Internet. It is the dataplane's per-probe
// lookup; the index is a dense sorted column plus a bucket directory
// (O(1) inside a full /16, no per-block map entries), which at the
// internet tier saves hundreds of megabytes over a hash map.
func (t *Topology) BlockIndex(b ipv4.Block) int {
	return t.blockIdx.Of(b)
}

// BlockOwner returns the AS that originates the prefix covering b, or nil.
func (t *Topology) BlockOwner(b ipv4.Block) *AS {
	i := t.BlockIndex(b)
	if i < 0 {
		return nil
	}
	return &t.ASes[t.Blocks[i].ASIdx]
}

// AddAS appends a new AS (used by scenarios to attach service/host
// networks) and returns its index. Call Finalize afterwards.
func (t *Topology) AddAS(a AS) int {
	t.ASes = append(t.ASes, a)
	return len(t.ASes) - 1
}

// Link records a relationship between two existing ASes. rel describes b's
// role relative to a: "customer" makes b a customer of a, "peer" makes
// them peers. It panics on unknown ASNs or rel — scenario wiring bugs
// should fail loudly at startup.
func (t *Topology) Link(a, b uint32, rel string) {
	ai, aok := t.findASN(a)
	bi, bok := t.findASN(b)
	if !aok || !bok {
		panic(fmt.Sprintf("topology: Link(%d, %d): unknown ASN", a, b))
	}
	switch rel {
	case "customer":
		t.ASes[ai].Customers = append(t.ASes[ai].Customers, b)
		t.ASes[bi].Providers = append(t.ASes[bi].Providers, a)
	case "peer":
		t.ASes[ai].Peers = append(t.ASes[ai].Peers, b)
		t.ASes[bi].Peers = append(t.ASes[bi].Peers, a)
	default:
		panic("topology: Link: rel must be customer or peer")
	}
}

func (t *Topology) findASN(asn uint32) (int, bool) {
	if t.byASN != nil {
		if i, ok := t.byASN[asn]; ok {
			return i, true
		}
	}
	for i := range t.ASes {
		if t.ASes[i].ASN == asn {
			return i, true
		}
	}
	return 0, false
}

// Finalize (re)builds lookup indexes and sorts blocks. It must be called
// after generation and after any scenario mutation.
func (t *Topology) Finalize() {
	t.gen++
	t.byASN = make(map[uint32]int, len(t.ASes))
	for i := range t.ASes {
		asn := t.ASes[i].ASN
		if prev, dup := t.byASN[asn]; dup {
			panic(fmt.Sprintf("topology: duplicate ASN %d at indexes %d and %d", asn, prev, i))
		}
		t.byASN[asn] = i
	}
	sort.Slice(t.Blocks, func(i, j int) bool { return t.Blocks[i].Block < t.Blocks[j].Block })
	cols := make([]ipv4.Block, len(t.Blocks))
	for i := range t.Blocks {
		cols[i] = t.Blocks[i].Block
	}
	t.blockIdx = colstore.NewIndex(cols)
	// Rebuild the RIB: longest-prefix match from any address to the AS
	// originating its covering announcement.
	t.rib = ipv4.Trie{}
	for i := range t.ASes {
		for _, p := range t.ASes[i].Prefixes {
			t.rib.Insert(p, i)
		}
	}
}

// ResolveAddr performs a routing-table (longest-prefix match) lookup:
// the announced prefix covering a and the AS originating it. Unlike
// BlockIndex, it answers for any address inside announced space — e.g.
// attributing an aliased reply from an unprobed address to its origin
// network.
func (t *Topology) ResolveAddr(a ipv4.Addr) (asIdx int, pfx ipv4.Prefix, ok bool) {
	p, v, ok := t.rib.LookupPrefix(a)
	if !ok {
		return -1, ipv4.Prefix{}, false
	}
	return v.(int), p, true
}

// GeoDistance is a cheap great-circle-ish distance in "degree units"
// between two coordinates, with longitude wraparound and latitude
// compression. Good enough to rank egress points for hot-potato routing.
func GeoDistance(lat1, lon1, lat2, lon2 float64) float64 {
	dlat := lat1 - lat2
	dlon := math.Mod(math.Abs(lon1-lon2), 360)
	if dlon > 180 {
		dlon = 360 - dlon
	}
	dlon *= math.Cos((lat1 + lat2) / 2 * math.Pi / 180)
	return math.Sqrt(dlat*dlat + dlon*dlon)
}

// NearestPoP returns the index of the AS PoP closest to (lat, lon).
func (a *AS) NearestPoP(lat, lon float64) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range a.PoPs {
		if d := GeoDistance(lat, lon, p.Lat, p.Lon); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// PrimaryPoP returns the AS's first (primary) PoP.
func (a *AS) PrimaryPoP() PoP { return a.PoPs[0] }

// sampleCountry picks a country index by the given weight accessor.
func sampleCountry(src *rng.Source, weight func(Country) float64) int {
	w := make([]float64, len(Countries))
	for i, c := range Countries {
		w[i] = weight(c)
	}
	return src.WeightedChoice(w)
}
