package analysis

import (
	"slices"
	"sort"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// §6.3: is a single catchment measurement representative over time? The
// paper measures Tangled every 15 minutes for a day (96 rounds) and finds
// the catchment very stable — ~95% of VPs keep their site, ~2.4% churn in
// and out of responsiveness, and only ~0.1% flip sites, with half the
// flips inside one AS (Table 7).

// StabilityRound is one Figure 9 data point: the transition counts
// between consecutive rounds.
type StabilityRound struct {
	Round int // index of the *current* round (1-based vs its predecessor)
	Diff  verfploeter.DiffStats
}

// Stability classifies every consecutive pair of rounds.
func Stability(rounds []*verfploeter.Catchment) []StabilityRound {
	if len(rounds) < 2 {
		return nil
	}
	out := make([]StabilityRound, 0, len(rounds)-1)
	for i := 1; i < len(rounds); i++ {
		out = append(out, StabilityRound{Round: i, Diff: verfploeter.Diff(rounds[i-1], rounds[i])})
	}
	return out
}

// MedianStability returns the medians of the four Figure 9 series.
func MedianStability(series []StabilityRound) verfploeter.DiffStats {
	if len(series) == 0 {
		return verfploeter.DiffStats{}
	}
	pick := func(f func(verfploeter.DiffStats) int) int {
		v := make([]int, len(series))
		for i, s := range series {
			v[i] = f(s.Diff)
		}
		sort.Ints(v)
		return v[len(v)/2]
	}
	return verfploeter.DiffStats{
		Stable:  pick(func(d verfploeter.DiffStats) int { return d.Stable }),
		Flipped: pick(func(d verfploeter.DiffStats) int { return d.Flipped }),
		ToNR:    pick(func(d verfploeter.DiffStats) int { return d.ToNR }),
		FromNR:  pick(func(d verfploeter.DiffStats) int { return d.FromNR }),
	}
}

// UnstableBlocks returns every block that changed site at least once
// across the rounds — the set §6.2 removes before counting AS divisions.
func UnstableBlocks(rounds []*verfploeter.Catchment) *ipv4.BlockSet {
	unstable := ipv4.NewBlockSet(0)
	for i := 1; i < len(rounds); i++ {
		prev, cur := rounds[i-1], rounds[i]
		cur.Range(func(b ipv4.Block, site int) bool {
			if ps, ok := prev.SiteOf(b); ok && ps != site {
				unstable.Add(b)
			}
			return true
		})
	}
	return unstable
}

// FlipAS is one Table 7 row: an AS and its share of all catchment flips.
type FlipAS struct {
	ASN    uint32
	Name   string
	Blocks int // distinct blocks of this AS that flipped
	Flips  int // total flip events
	Frac   float64
}

// FlipAttribution tallies flips per origin AS across all rounds,
// descending by flip count (Table 7).
func FlipAttribution(top *topology.Topology, rounds []*verfploeter.Catchment) []FlipAS {
	flips := map[int32]int{}
	blocks := map[int32]*ipv4.BlockSet{}
	total := 0
	for i := 1; i < len(rounds); i++ {
		prev, cur := rounds[i-1], rounds[i]
		cur.Range(func(b ipv4.Block, site int) bool {
			ps, ok := prev.SiteOf(b)
			if !ok || ps == site {
				return true
			}
			bi := top.BlockIndex(b)
			if bi < 0 {
				return true
			}
			asIdx := top.Blocks[bi].ASIdx
			flips[asIdx]++
			total++
			bs := blocks[asIdx]
			if bs == nil {
				bs = ipv4.NewBlockSet(0)
				blocks[asIdx] = bs
			}
			bs.Add(b)
			return true
		})
	}
	out := make([]FlipAS, 0, len(flips))
	for asIdx, n := range flips {
		a := &top.ASes[asIdx]
		frac := 0.0
		if total > 0 {
			frac = float64(n) / float64(total)
		}
		out = append(out, FlipAS{
			ASN: a.ASN, Name: a.Name,
			Blocks: blocks[asIdx].Len(), Flips: n, Frac: frac,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flips != out[j].Flips {
			return out[i].Flips > out[j].Flips
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// TopFlipShare returns the combined flip share of the top n ASes (the
// paper: 63% of flips sit in 5 ASes, 51% in one).
func TopFlipShare(rows []FlipAS, n int) float64 {
	share := 0.0
	for i, r := range rows {
		if i >= n {
			break
		}
		share += r.Frac
	}
	return share
}

// Consensus folds a multi-round campaign into one robust catchment: each
// block maps to the site it reached most often, ignoring blocks seen in
// fewer than minRounds rounds. Operators using repeated measurements
// (the paper's 96-round campaign) want a map that transient flips and
// responsiveness blinks cannot distort.
func Consensus(rounds []*verfploeter.Catchment, minRounds int) *verfploeter.Catchment {
	if minRounds < 1 {
		minRounds = 1
	}
	nSite := 1
	if len(rounds) > 0 {
		nSite = rounds[0].NSite
	}
	var blocks []ipv4.Block
	for _, r := range rounds {
		r.Range(func(b ipv4.Block, _ int) bool {
			blocks = append(blocks, b)
			return true
		})
	}
	slices.Sort(blocks)
	ix := colstore.NewIndex(slices.Compact(blocks))
	// votes[id*nSite+s] counts the rounds that mapped block ix.At(id) to s.
	votes := make([]int, ix.Len()*nSite)
	for _, r := range rounds {
		r.Range(func(b ipv4.Block, site int) bool {
			row := ix.Of(b) * nSite
			votes[row : row+nSite][site]++ // a site past nSite panics, not spills
			return true
		})
	}
	out := verfploeter.NewCatchment(nSite, ix)
	for id := 0; id < ix.Len(); id++ {
		best, bestN, total := 0, 0, 0
		for s, n := range votes[id*nSite : (id+1)*nSite] {
			total += n
			if n > bestN {
				best, bestN = s, n
			}
		}
		if total >= minRounds {
			out.Set(ix.At(id), best)
		}
	}
	return out
}
