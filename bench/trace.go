package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer's public function.
// Start and End are nanoseconds since the tracer was created. Parent is
// the ID of the span that caused this one (-1 for a root); spans of one
// iteration or request share Iter.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end return at once, so the end-to-end numbers
// carry no span cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on the nil tracer).
func (t *tracer) begin(name string, iter, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: iter, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (concurrent requests under one phase span) or stick out of
// the parent; the covered part is the union of their intervals clipped
// to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return spans[ks[i]].Start < spans[ks[j]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = dur - covered
	}
	return self
}

// rootSelfShares returns, for every root span named name, the share of
// its own wall it spent outside its children — the part of a composed
// iteration that no span accounts for.
func rootSelfShares(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var shares []float64
	for _, s := range spans {
		if s.Name == name && s.Parent < 0 && s.End > s.Start {
			shares = append(shares, float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	return shares
}

// spanCost times begin+end on a scratch tracer: the per-span price the
// traced run pays, from which trace_overhead_pct is computed.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", i, -1))
	}
	return time.Since(start) / n
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
