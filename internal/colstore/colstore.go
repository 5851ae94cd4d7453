// Package colstore provides the dense, struct-of-arrays backbone for
// internet-scale state: an immutable sorted index over /24 blocks that
// turns map[ipv4.Block]T tables into flat columns indexed by a small
// integer.
//
// The paper's full-Internet hitlist covers ~6.4M /24 blocks. A Go map
// keyed by block costs ~50 B per entry plus pointer-chasing on every
// lookup; a sorted index plus int16/int64 columns costs 4 B for the key
// (shared, usually aliasing an existing sorted slice) and exactly the
// column width per block, with no per-entry allocation. Every hot
// structure in the mapping pipeline — catchments, BGP assignments,
// topology block metadata — is keyed by the same dense id, so state
// flows through probe→fold→assign without rehashing.
//
// Determinism: an Index imposes one canonical order (ascending block),
// so iteration over columnar state is reproducible by construction —
// unlike map ranges, which randomize per run.
package colstore

import (
	"fmt"
	"math/bits"

	"verfploeter/internal/ipv4"
)

// Index is an immutable mapping between /24 blocks and dense ids
// 0..Len()-1, in ascending block order. The zero value is an empty
// index. Indexes are safe for concurrent readers.
type Index struct {
	blocks []ipv4.Block
	// start is the bucket directory: bucket j holds the blocks whose top
	// bits (b >> shift) equal j, at ids start[j]..start[j+1]-1. It has
	// 2^k+1 entries for k = min(16, ceil(log2 n), bits of the max block),
	// so it never exceeds 2n entries.
	start []uint32
	shift uint
}

// NewIndex builds an index over the given blocks. The slice must be
// strictly ascending (sorted, no duplicates) — the invariant every
// producer in this codebase already maintains (hitlists sort by address
// with one representative per block; topologies sort blocks at
// Finalize). The slice is aliased, not copied: callers hand over
// ownership and must not mutate it afterwards. A violation panics,
// because a mis-sorted index silently corrupts every column built on it.
func NewIndex(blocks []ipv4.Block) *Index {
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			panic(fmt.Sprintf("colstore: blocks not strictly ascending at %d: %v >= %v",
				i, blocks[i-1], blocks[i]))
		}
	}
	ix := &Index{blocks: blocks}
	n := len(blocks)
	if n == 0 {
		return ix
	}
	// The span comes from the max block, not from 24 bits: blocks are
	// plain uint32 values and callers may index any of them.
	span := bits.Len32(uint32(blocks[n-1]))
	k := min(16, bits.Len(uint(n-1)), span)
	ix.shift = uint(span - k)
	ix.start = make([]uint32, 1<<k+1)
	bk := 0
	for i, b := range blocks {
		for top := int(uint32(b) >> ix.shift); bk < top; {
			bk++
			ix.start[bk] = uint32(i)
		}
	}
	for bk++; bk < len(ix.start); bk++ {
		ix.start[bk] = uint32(n)
	}
	return ix
}

// Len returns the number of indexed blocks.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.blocks)
}

// At returns the block with dense id i.
func (ix *Index) At(i int) ipv4.Block { return ix.blocks[i] }

// Blocks returns the underlying ascending block slice. Callers must
// treat it as read-only.
func (ix *Index) Blocks() []ipv4.Block {
	if ix == nil {
		return nil
	}
	return ix.blocks
}

// Of returns the dense id of block b, or -1 when b is not indexed.
// The bucket directory narrows b to the ids sharing its top bits. A
// bucket holding every one of its 2^shift possible blocks (a whole /16
// at the internet tier) answers by offset with no search; any other
// bucket is binary-searched within its own bounds.
func (ix *Index) Of(b ipv4.Block) int {
	if ix == nil || len(ix.blocks) == 0 || b > ix.blocks[len(ix.blocks)-1] {
		return -1
	}
	bk := uint32(b) >> ix.shift
	lo, end := int(ix.start[bk]), int(ix.start[bk+1])
	if end-lo == 1<<ix.shift {
		return lo + int(uint32(b)&(1<<ix.shift-1))
	}
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.blocks[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && ix.blocks[lo] == b {
		return lo
	}
	return -1
}

// Contains reports whether b is indexed.
func (ix *Index) Contains(b ipv4.Block) bool { return ix.Of(b) >= 0 }
