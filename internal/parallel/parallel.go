// Package parallel provides the small worker-pool helpers used by the
// compression engines, the end-to-end transfer experiment and the CLI
// tools.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(worker, i) for i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS), blocks until every started call has
// returned, and returns the error of the lowest failing index. It is the
// one pool loop: everything else here, and every fan-out of the engines,
// is built on it.
//
// worker is the stable index (0 <= worker < min(workers, n)) of the
// goroutine that claimed the item. Each worker index is owned by exactly
// one goroutine, so callers can key per-worker state (scratch buffers,
// telemetry spans) on it without synchronization; the sequential path
// uses worker 0 for every item. Work is handed out in index order with an
// atomic counter, so per-index overhead is a single uncontended atomic
// add.
//
// After a failure no new index is claimed. Every index below a claimed
// one was claimed before it, so the lowest failing index always runs and
// the returned error does not depend on scheduling.
func ForEach(n, workers int, fn func(worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// A worker claims ascending indexes and stops at its first failure,
	// so one slot per worker holds that worker's lowest.
	type failure struct {
		i   int
		err error
	}
	fails := make([]failure, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					fails[w] = failure{i, err}
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	first := failure{i: n}
	for _, f := range fails {
		if f.err != nil && f.i < first.i {
			first = f
		}
	}
	return first.err
}

// ForEachChunked runs fn(lo, hi) over consecutive index ranges
// [k*grain, min((k+1)*grain, n)) covering [0, n), on up to workers
// goroutines. Fine-grained loops should prefer it over ForEach: each
// handoff covers grain indexes, so the per-index scheduling cost vanishes.
// grain <= 0 selects a grain that yields ~4 chunks per worker. Chunk
// boundaries depend only on (n, grain), never on scheduling, so callers
// can key deterministic per-chunk state (e.g. ordered result buffers) on
// lo/grain.
func ForEachChunked(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if grain <= 0 {
		grain = n / (4 * workers)
		if grain < 1 {
			grain = 1
		}
	}
	nChunks := (n + grain - 1) / grain
	// fn cannot fail, so neither can the loop.
	_ = ForEach(nChunks, workers, func(_, c int) error {
		lo := c * grain
		fn(lo, min(lo+grain, n))
		return nil
	})
}

// Chunks returns the number of chunks ForEachChunked(n, _, grain, ...)
// dispatches, so callers can pre-size per-chunk result buffers.
func Chunks(n, grain int) int {
	if n <= 0 || grain <= 0 {
		return 0
	}
	return (n + grain - 1) / grain
}

// Map runs fn over [0, n) in parallel and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	// fn cannot fail, so neither can the loop.
	_ = ForEach(n, workers, func(_, i int) error {
		out[i] = fn(i)
		return nil
	})
	return out
}
