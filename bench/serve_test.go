package main

import (
	"sort"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/rng"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
)

// One worker, 2000 operations a second, operation 5 stalls for 30 ms:
// the operations queued behind it must be sent late, their latency —
// timed from when they were due — must include that wait, and the
// backlog must drain as the worker catches up.
func TestOpenLoopCountsAStallAgainstLaterRequests(t *testing.T) {
	const n, stallAt, stall = 60, 5, 30 * time.Millisecond
	after := func(int, int) {}
	latency, late := openLoop(n, 2000, 1, func(_, i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	}, after)

	if late[stallAt-1] > 10*time.Millisecond {
		t.Errorf("operation before the stall was %v late", late[stallAt-1])
	}
	if latency[stallAt] < stall {
		t.Errorf("stalled operation's latency %v is shorter than its stall", latency[stallAt])
	}
	next := stallAt + 1
	if late[next] < stall-5*time.Millisecond {
		t.Errorf("operation right behind the stall was sent only %v late, want about %v", late[next], stall)
	}
	for i := range latency {
		if latency[i] < late[i] {
			t.Errorf("operation %d: latency %v does not include its lateness %v", i, latency[i], late[i])
		}
	}
	// 0.5 ms of schedule is regained per operation sent back to back.
	if late[next+30] >= late[next] {
		t.Errorf("backlog did not drain: %v late at %d, %v late at %d", late[next], next, late[next+30], next+30)
	}
}

// With a second worker free, the same stall delays nobody else.
func TestOpenLoopSecondWorkerAbsorbsAStall(t *testing.T) {
	const n, stallAt, stall = 40, 5, 30 * time.Millisecond
	_, late := openLoop(n, 2000, 2, func(_, i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	}, func(int, int) {})
	if late[stallAt+1] > stall/2 {
		t.Errorf("with a free worker, the operation behind the stall was still %v late", late[stallAt+1])
	}
}

func TestClosedLoopPartitionsOperationsByWorker(t *testing.T) {
	seen := make([][]int, 3)
	per := closedLoop(20*time.Millisecond, 3, func(w, i int) {
		seen[w] = append(seen[w], i)
		time.Sleep(time.Millisecond)
	}, func(int, int) {})
	for w := range per {
		if len(per[w]) == 0 || len(per[w]) != len(seen[w]) {
			t.Fatalf("worker %d: %d latencies for %d operations", w, len(per[w]), len(seen[w]))
		}
		for k, i := range seen[w] {
			if i != w+3*k {
				t.Fatalf("worker %d performed operation %d as its %d-th, want %d", w, i, k, w+3*k)
			}
		}
	}
}

func TestAddressStreamIsSeededAndHeavyTailed(t *testing.T) {
	s := scenario.BRoot(topology.SizeTiny, worldSeed)
	log := s.RootLog()
	const n = 50000
	a := addressStream(log, rng.New(7), n)
	b := addressStream(log, rng.New(7), n)
	c := addressStream(log, rng.New(8), n)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Fatalf("stream must repeat for one seed (%v) and change with another (%v)", same, differ)
	}

	// The busiest tenth of the log's blocks should draw the share of
	// lookups its queries-per-day weight says, and that share is most of
	// the traffic.
	qpd := make([]float64, 0, log.Len())
	for i := range log.Blocks {
		qpd = append(qpd, log.Blocks[i].QueriesPerDay)
	}
	sort.Float64s(qpd)
	cut := qpd[len(qpd)*9/10]
	want := 0.0
	for _, q := range qpd[len(qpd)*9/10:] {
		want += q
	}
	want /= log.TotalQPD()
	hot := 0
	blocks := map[ipv4.Block]bool{}
	for _, addr := range a {
		blocks[addr.Block()] = true
		if log.QPD(addr.Block()) >= cut {
			hot++
		}
	}
	got := float64(hot) / n
	if want < 0.5 || got < want-0.03 || got > want+0.03 {
		t.Errorf("busiest tenth of blocks drew %.3f of lookups, their weight is %.3f (want > 0.5)", got, want)
	}
	if len(blocks) < log.Len()/4 {
		t.Errorf("stream touched only %d of %d blocks: the tail is missing", len(blocks), log.Len())
	}
}

func TestRequestMix(t *testing.T) {
	s := scenario.BRoot(topology.SizeTiny, worldSeed)
	reqs := buildRequests("http://x", s.RootLog(), 3, 20000)
	var n [nKinds]int
	for _, r := range reqs {
		n[r.kind]++
	}
	share := func(k int) float64 { return float64(n[k]) / float64(len(reqs)) }
	if l, si, d := share(kindLookup), share(kindSites), share(kindDrift); l < 0.96 || l > 0.98 || si < 0.015 || si > 0.025 || d < 0.006 || d > 0.014 {
		t.Errorf("mix lookup %.3f sites %.3f drift %.3f, want 0.97 / 0.02 / 0.01", l, si, d)
	}
}
