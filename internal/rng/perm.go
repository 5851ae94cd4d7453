package rng

// Permutation is a full-cycle pseudorandom permutation over [0, N): it
// visits every index exactly once in a scrambled order without storing the
// permutation. Verfploeter uses it to spread probes so that no destination
// network receives a burst (§3.1, "pseudorandom order, following [25]").
//
// The construction is a 4-round Feistel network over the smallest even-bit
// domain covering N, with cycle-walking to stay inside [0, N). It is a
// bijection by construction.
type Permutation struct {
	n        uint64
	halfBits uint
	halfMask uint64
	keys     [4]uint32
}

// NewPermutation returns a permutation of [0, n) keyed by the source.
// n must be positive.
func NewPermutation(src *Source, n int) *Permutation {
	if n <= 0 {
		panic("rng: NewPermutation with non-positive n")
	}
	bitsNeeded := uint(1)
	for uint64(1)<<bitsNeeded < uint64(n) {
		bitsNeeded++
	}
	if bitsNeeded%2 == 1 {
		bitsNeeded++
	}
	p := &Permutation{
		n:        uint64(n),
		halfBits: bitsNeeded / 2,
		halfMask: uint64(1)<<(bitsNeeded/2) - 1,
	}
	for i := range p.keys {
		p.keys[i] = src.Uint32()
	}
	return p
}

// Len returns the size of the permuted domain.
func (p *Permutation) Len() int { return int(p.n) }

// Index returns the i-th element of the permutation, i in [0, Len()).
func (p *Permutation) Index(i int) int {
	x := uint64(i)
	for {
		x = p.feistel(x)
		if x < p.n {
			return int(x)
		}
		// Cycle-walk: x landed in the padding of the power-of-two
		// domain; feed it back through. Terminates because the
		// permutation over the full domain is a bijection.
	}
}

// Position returns the position at which the permutation visits x, x in
// [0, Len()) — the inverse of Index: Index(Position(x)) == x. It runs
// the Feistel rounds backwards and cycle-walks the same padding chain
// Index walked forwards, so it costs what one Index call costs; a
// caller holding a few members of a large domain can locate them
// without evaluating the whole permutation.
func (p *Permutation) Position(x int) int {
	y := uint64(x)
	for {
		y = p.feistelInverse(y)
		if y < p.n {
			return int(y)
		}
	}
}

func (p *Permutation) feistel(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for _, k := range p.keys {
		l, r = r, l^(p.round(r, k)&p.halfMask)
	}
	return l<<p.halfBits | r
}

// feistelInverse undoes feistel: each round (l, r) -> (r, l^f(r)) is
// reversed as (l', r') -> (r'^f(l'), l'), keys in reverse order.
func (p *Permutation) feistelInverse(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for i := len(p.keys) - 1; i >= 0; i-- {
		l, r = r^(p.round(l, p.keys[i])&p.halfMask), l
	}
	return l<<p.halfBits | r
}

func (p *Permutation) round(r uint64, k uint32) uint64 {
	h := r*0x9e3779b97f4a7c15 + uint64(k)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}
