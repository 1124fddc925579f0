// Package parallel provides the small worker-pool helpers used by the
// compression engines, the end-to-end transfer experiment and the CLI
// tools.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). It blocks until all calls return.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach, additionally passing the stable worker index
// (0 <= worker < min(workers, n)) claiming each item. Each worker index is
// owned by exactly one goroutine, so callers can key per-worker state
// (scratch buffers, telemetry spans) on it without synchronization. The
// sequential path uses worker 0 for every item. Work is handed out with
// an atomic counter, so per-index overhead is a single uncontended atomic
// add.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(w, int(i))
			}
		}(w)
	}
	wg.Wait()
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
	ForEach(nChunks, workers, func(c int) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		fn(lo, hi)
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
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}
