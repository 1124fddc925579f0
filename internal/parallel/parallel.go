// Package parallel provides the small worker-pool helpers used by the
// sharded back end, the chunked containers and the end-to-end transfer
// experiment.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(worker, i) for i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS), blocks until every started call has
// returned, and returns the error of the lowest failing index. It is the
// one pool loop: Map, and every fan-out of the codec, is built on it.
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
