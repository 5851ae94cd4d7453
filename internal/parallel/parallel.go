// Package parallel provides the bounded worker pool behind the mapping
// pipeline's hot paths: the probe sweep and catchment build in
// internal/verfploeter, per-block assignment in internal/bgp, and
// multi-round campaigns in internal/experiments.
//
// Determinism is the design constraint. The paper's pipeline must produce
// identical catchments, assignments, and reports at workers=1 and
// workers=N, so this package never makes output depend on scheduling.
// Call sites guarantee that by construction, in one of three shapes:
//
//   - disjoint index writes: each item i writes only out[i] (assignment,
//     probe marshaling, reply parsing);
//   - keyed sharding: a state-carrying pass partitions its input by a
//     key (say, the /24 block) so all order-dependent interactions stay
//     inside one shard, which processes them in original input order
//     (Shards; no pipeline stage needs it since the probe sweep folds
//     each reply in the chunk that sent it);
//   - ordered merge: per-shard or per-chunk results are combined in shard
//     index order, or with a commutative reduction (counter sums).
//
// Under any of those, the worker count and the dynamic chunk schedule
// only change wall-clock time, never results.
//
// The fault-injection layer (internal/faults) leans on the same shapes:
// the probe sweep keeps each block's per-/24 rate-limit count beside the
// block in its constant-boundary chunk, and every probe for a block —
// retries included — executes inside that chunk, so injected faults
// replay identically at any pool width.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one per
// available CPU" (GOMAXPROCS); anything else is returned unchanged.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Chunked splits [0, n) into contiguous chunks and runs fn(lo, hi) on up
// to workers goroutines, blocking until all chunks complete. Chunks are
// handed out dynamically for load balance; fn must therefore not care
// which goroutine runs which range (see the package comment for the
// determinism shapes that make this safe). workers <= 0 means one per
// CPU; with one worker fn runs inline as a single [0, n) chunk. A panic
// in any fn is re-raised on the calling goroutine.
func Chunked(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	// ~4 chunks per worker: coarse enough to amortize scheduling, fine
	// enough that one slow chunk cannot idle the pool.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	run(w, func(int) {
		for {
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	})
}

// ForEach runs fn(i) for every i in [0, n), chunked across up to workers
// goroutines, blocking until all complete. fn must write only state
// owned by item i; scheduling, inline execution at one worker, and panic
// propagation follow Chunked.
func ForEach(workers, n int, fn func(i int)) {
	Chunked(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Shards runs fn(shard) once for each shard in [0, nShards), one shard
// per pool slot. It is the keyed-sharding primitive: the caller routes
// every input item to a shard by a key (for the pipeline, the /24 block)
// and fn processes its shard's items in original input order, so all
// order-dependent state stays shard-local and results are independent of
// both worker count and shard count.
func Shards(workers, nShards int, fn func(shard int)) {
	if nShards <= 0 {
		return
	}
	w := Workers(workers)
	if w > nShards {
		w = nShards
	}
	if w <= 1 {
		for s := 0; s < nShards; s++ {
			fn(s)
		}
		return
	}
	var cursor atomic.Int64
	run(w, func(int) {
		for {
			s := int(cursor.Add(1)) - 1
			if s >= nShards {
				return
			}
			fn(s)
		}
	})
}

// WithWorker runs body(worker) on each of Workers(workers) goroutines and
// blocks until all return. Callers that need per-goroutine state (a
// scenario fork, a scratch buffer) index it by the worker id; work items
// are typically drawn from a shared atomic cursor inside body. With one
// worker, body(0) runs inline.
func WithWorker(workers int, body func(worker int)) {
	w := Workers(workers)
	if w <= 1 {
		body(0)
		return
	}
	run(w, body)
}

// run launches body on w goroutines, waits, and re-raises the first
// panic (by goroutine index) on the caller so a worker crash fails the
// calling test or request instead of killing the process.
func run(w int, body func(worker int)) {
	panics := make([]any, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[worker] = r
				}
			}()
			body(worker)
		}(g)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("parallel: worker panic: %v", p))
		}
	}
}
