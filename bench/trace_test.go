package main

import "testing"

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},       // overlaps a by 10
		{ID: 3, Parent: 1, Name: "a.inner", Start: 12, End: 20}, // nested under a
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},      // sticks out of the parent by 20
		{ID: 5, Parent: -1, Name: "round", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "a", Start: 200, End: 298},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (40 + 10), // a∪b covers 10..50, c covers 90..100
		20 - 8,
		30,
		8,
		30,
		2,
		98,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	if got := rootSelfShares(spans, "round"); len(got) != 2 || got[0] != 0.5 || got[1] != 0.02 {
		t.Errorf("uncovered shares of the two rounds = %v, want [0.5 0.02]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.end(id)
	if id != -1 || tr.count() != 0 {
		t.Errorf("nil tracer: id %d, %d spans", id, tr.count())
	}
	live := newTracer()
	root := live.begin("root", 7, -1)
	kid := live.begin("kid", 7, root)
	live.end(kid)
	live.end(root)
	if live.count() != 2 || live.spans[kid].Parent != root || live.spans[kid].Iter != 7 ||
		live.spans[root].End < live.spans[kid].End {
		t.Errorf("live tracer recorded %+v", live.spans)
	}
}
