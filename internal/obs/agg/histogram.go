package agg

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log-2 buckets. Bucket i counts values v
// with bits.Len64(v) == i, i.e. v == 0 for i == 0 and
// 2^(i-1) <= v < 2^i for i >= 1. 64 buckets cover the whole non-negative
// int64 range, so nanosecond latencies and byte sizes share one shape.
const histBuckets = 64

// Histogram is a log-2-bucketed distribution of non-negative int64
// observations (latency nanoseconds, byte sizes). All methods are atomic,
// safe for concurrent use, and no-ops on a nil receiver — the same
// nil-means-off contract as obs.Span, pinned by
// TestNilRegistryZeroAllocs.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistSnapshot is a point-in-time copy of a histogram's state. Buckets
// are read individually (not under one lock), so a snapshot taken during
// concurrent observation may be off by in-flight increments — fine for
// monitoring, never torn per bucket.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1)<<i - 1
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the covering log-2 bucket. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Quantile estimates the q-quantile of a snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	// Recompute the total from the buckets: under concurrent observation
	// Count may run ahead of the bucket increments, and a rank beyond the
	// last bucket would misreport the maximum.
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1) // 0-based fractional rank
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		// Bucket i covers 0-based ranks [cum, cum+c).
		if rank < float64(cum+c) {
			lo, hi := bucketBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	// Unreachable when total > 0; return the top of the last non-empty
	// bucket as a safe fallback.
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}
