package monitor

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
)

// sortedSampleSet is sampleSet's reference: rank every AS's blocks by a
// full sort on (hash, block) and take the first k.
func sortedSampleSet(st *strata, epoch int, rate float64, seed uint64) *ipv4.BlockSet {
	out := ipv4.NewBlockSet(64)
	for _, blocks := range st.perAS {
		if len(blocks) == 0 {
			continue
		}
		k := int(math.Ceil(rate * float64(len(blocks))))
		if k < 1 {
			k = 1
		}
		if k >= len(blocks) {
			for _, b := range blocks {
				out.Add(b)
			}
			continue
		}
		r := make([]ranked, 0, len(blocks))
		for _, b := range blocks {
			r = append(r, ranked{mix64(seed^uint64(epoch)*0x9e3779b97f4a7c15, uint64(b)), b})
		}
		sort.Slice(r, func(i, j int) bool {
			if r[i].h != r[j].h {
				return r[i].h < r[j].h
			}
			return r[i].b < r[j].b
		})
		for _, x := range r[:k] {
			out.Add(x.b)
		}
	}
	return out
}

func sameBlocks(a, b *ipv4.BlockSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Range(func(x ipv4.Block) bool {
		same = b.Contains(x)
		return same
	})
	return same
}

// TestSampleSetMatchesSortReference: quickselect picks exactly the
// blocks the full sort ranks first, for every AS, rate and epoch.
func TestSampleSetMatchesSortReference(t *testing.T) {
	for _, size := range []topology.Size{topology.SizeSmall, topology.SizeMedium} {
		s := scenario.BRoot(size, 5)
		st := buildStrata(s, 32)
		for _, rate := range []float64{0.01, 0.125, 0.5, 1} {
			for epoch := 0; epoch <= 5; epoch++ {
				got := st.sampleSet(epoch, rate, s.Seed)
				if want := sortedSampleSet(st, epoch, rate, s.Seed); !sameBlocks(got, want) {
					t.Errorf("size %v rate %v epoch %d: sample of %d blocks differs from the sorted reference's %d",
						size, rate, epoch, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestSelectSmallest checks the selection kernel on its own against a
// sort, over random lengths and k, including duplicate hashes (the
// block tie-break).
func TestSelectSmallest(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rnd.Intn(300)
		// Hashes collide often; blocks are unique, as within an AS.
		r := make([]ranked, n)
		for i := range r {
			r[i] = ranked{uint64(rnd.Intn(1 + n/2)), ipv4.Block(i)}
		}
		rnd.Shuffle(n, func(i, j int) { r[i], r[j] = r[j], r[i] })
		ref := append([]ranked(nil), r...)
		sort.Slice(ref, func(i, j int) bool { return ref[i].less(ref[j]) })
		k := 1 + rnd.Intn(n)
		selectSmallest(r, k)
		want := make(map[ranked]bool, k)
		for _, x := range ref[:k] {
			want[x] = true
		}
		for _, x := range r[:k] {
			if !want[x] {
				t.Fatalf("n=%d k=%d: %v selected but not among the k smallest", n, k, x)
			}
		}
	}
}
