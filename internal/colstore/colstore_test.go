package colstore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"verfploeter/internal/ipv4"
)

func TestIndexOf(t *testing.T) {
	blocks := []ipv4.Block{1, 5, 9, 200, 70000, 1 << 23}
	ix := NewIndex(blocks)
	if ix.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(blocks))
	}
	for i, b := range blocks {
		if got := ix.Of(b); got != i {
			t.Errorf("Of(%v) = %d, want %d", b, got, i)
		}
		if ix.At(i) != b {
			t.Errorf("At(%d) = %v, want %v", i, ix.At(i), b)
		}
	}
	for _, b := range []ipv4.Block{0, 2, 8, 199, 201, 1<<23 + 1} {
		if got := ix.Of(b); got != -1 {
			t.Errorf("Of(%v) = %d, want -1", b, got)
		}
		if ix.Contains(b) {
			t.Errorf("Contains(%v) = true, want false", b)
		}
	}
}

func TestIndexEmptyAndNil(t *testing.T) {
	var nilIx *Index
	if nilIx.Len() != 0 || nilIx.Of(5) != -1 || nilIx.Blocks() != nil {
		t.Error("nil index should behave as empty")
	}
	empty := NewIndex(nil)
	if empty.Len() != 0 || empty.Of(5) != -1 {
		t.Error("empty index should miss everything")
	}
}

func TestIndexRejectsUnsorted(t *testing.T) {
	for _, bad := range [][]ipv4.Block{
		{2, 1},
		{1, 1},
		{1, 2, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%v) did not panic", bad)
				}
			}()
			NewIndex(bad)
		}()
	}
}

// refOf is the obviously-right reference for Index.Of: a sort.Search
// over the ascending block slice.
func refOf(blocks []ipv4.Block, b ipv4.Block) int {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i] >= b })
	if i < len(blocks) && blocks[i] == b {
		return i
	}
	return -1
}

// sparseBlocks draws n distinct blocks below limit, ascending.
func sparseBlocks(r *rand.Rand, n int, limit uint32) []ipv4.Block {
	set := make(map[ipv4.Block]bool, n)
	for len(set) < n {
		set[ipv4.Block(r.Uint32()%limit)] = true
	}
	out := make([]ipv4.Block, 0, n)
	for b := range set {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// denseBlocks returns every block of the given whole /16 runs (256
// blocks each), so every directory bucket is full and Of takes its
// offset branch.
func denseBlocks(prefixes ...uint32) []ipv4.Block {
	var out []ipv4.Block
	for _, p := range prefixes {
		for lo := uint32(0); lo < 256; lo++ {
			out = append(out, ipv4.Block(p<<8|lo))
		}
	}
	return out
}

// TestIndexOfMatchesReference checks Of and Contains against refOf over
// every index shape the bucket directory distinguishes: empty, single,
// whole /16 runs (offset branch), sparse sets (in-bucket search), and
// blocks past 2^24 (the span comes from the max block, not from 24
// bits). Each index is probed at every indexed block and at absent
// blocks below the minimum, above the maximum and between entries.
func TestIndexOfMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shapes := map[string][]ipv4.Block{
		"empty":          {},
		"single-zero":    {0},
		"single":         {0x123456},
		"single-max":     {math.MaxUint32},
		"dense-one-16":   denseBlocks(0x0a00),
		"dense-runs":     denseBlocks(0x0100, 0x0101, 0x0102, 0x0500, 0xfffe, 0xffff),
		"dense-plus-gap": append(denseBlocks(0x0100, 0x0101), 0x010300, 0x010305, 0x020000),
		"sparse-small":   sparseBlocks(r, 7, 1<<24),
		"sparse":         sparseBlocks(r, 5000, 1<<24),
		"sparse-narrow":  sparseBlocks(r, 3000, 1<<13),
		"above-2^24":     sparseBlocks(r, 4000, math.MaxUint32),
		"mixed-2^24":     append(denseBlocks(0x0200), 1<<24, 1<<24+1, 1<<30, math.MaxUint32-1),
	}
	for name, blocks := range shapes {
		ix := NewIndex(blocks)
		if ix.Len() != len(blocks) {
			t.Fatalf("%s: Len = %d, want %d", name, ix.Len(), len(blocks))
		}
		if len(ix.start) > 2*ix.Len()+2 {
			t.Errorf("%s: directory has %d entries for %d blocks", name, len(ix.start), ix.Len())
		}
		probes := []ipv4.Block{0, 1, math.MaxUint32, math.MaxUint32 - 1, 1 << 24, 1<<24 - 1}
		for i, b := range blocks {
			probes = append(probes, b, b-1, b+1)
			if i > 0 && blocks[i-1]+1 < b {
				probes = append(probes, blocks[i-1]+(b-blocks[i-1])/2)
			}
		}
		for k := 0; k < 1000; k++ {
			probes = append(probes, ipv4.Block(r.Uint32()), ipv4.Block(r.Uint32()%(1<<24)))
		}
		for _, b := range probes {
			want := refOf(blocks, b)
			if got := ix.Of(b); got != want {
				t.Fatalf("%s: Of(%#x) = %d, want %d", name, uint32(b), got, want)
			}
			if got := ix.Contains(b); got != (want >= 0) {
				t.Fatalf("%s: Contains(%#x) = %v, want %v", name, uint32(b), got, want >= 0)
			}
		}
	}
	var nilIx *Index
	if nilIx.Of(0) != -1 || (&Index{}).Of(0) != -1 {
		t.Error("nil and zero-value indexes must miss everything")
	}
}

// BenchmarkIndexOf measures one lookup over an internet-tier-sized
// index (~1.2 M blocks) in four cases: dense (whole /16s, the offset
// branch) or sparse (in-bucket search), probed in ascending or random
// order. Random order is the sweep's access pattern.
func BenchmarkIndexOf(b *testing.B) {
	const n = 1 << 20
	r := rand.New(rand.NewSource(1))
	var dense []ipv4.Block
	for p := uint32(0x0100); len(dense) < n; p += 3 {
		dense = append(dense, denseBlocks(p)...)
	}
	sets := []struct {
		name   string
		blocks []ipv4.Block
	}{
		{"dense", dense},
		{"sparse", sparseBlocks(r, n, 1<<24)},
	}
	for _, set := range sets {
		ix := NewIndex(set.blocks)
		random := slices.Clone(set.blocks)
		r.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
		for _, order := range []struct {
			name   string
			probes []ipv4.Block
		}{{"ascending", set.blocks}, {"random", random}} {
			b.Run(set.name+"/"+order.name, func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += ix.Of(order.probes[i&(n-1)])
				}
				if sum < 0 {
					b.Fatal("lookup missed an indexed block")
				}
			})
		}
	}
}
