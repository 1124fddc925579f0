// Package a exercises the parallelpure analyzer: worker closures handed
// to the parallel pool helpers may write captured state only through
// per-index disjoint slots.
package a

import "parallel"

type stats struct {
	total int
}

// Violations: every write below mutates state captured from the
// enclosing function without a per-index slot.
func bad(n int, data []float64) float64 {
	sum := 0.0
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		sum += data[i] // want "writes captured variable \"sum\""
		return nil
	})

	var last float64
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		last = data[i] // want "writes captured variable \"last\""
		return nil
	})

	seen := make(map[int]bool)
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		seen[i] = true // want "writes captured map \"seen\""
		return nil
	})

	var st stats
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		st.total++ // want "writes a field of captured \"st\""
		return nil
	})

	p := &st
	_ = parallel.ForEach(n, 4, func(worker, i int) error {
		*p = stats{total: i} // want "writes through captured pointer \"p\""
		return nil
	})
	_ = parallel.ForEach(n, 4, func(worker, i int) error {
		p.total = i // want "writes a field of captured \"p\""
		return nil
	})

	var out []float64
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		out = append(out, data[i]) // want "writes captured variable \"out\""
		return nil
	})

	first := make([]float64, 1)
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		first[0] = data[i] // want "writes captured slice \"first\" at an index independent"
		return nil
	})

	counters := make([]int, 8)
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		k := 3
		_ = k
		counters[n%8]++ // want "writes captured slice \"counters\" at an index independent"
		return nil
	})

	// Writes inside a nested literal still run on the worker goroutine.
	var nested int
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		func() {
			nested = i // want "writes captured variable \"nested\""
		}()
		return nil
	})

	return sum + last + float64(nested)
}

// Clean: disjoint per-index, per-worker and per-chunk slots, local
// state, and declarations inside the closure.
func good(n int, data []float64) []float64 {
	out := make([]float64, n)
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		out[i] = 2 * data[i]
		return nil
	})

	perWorker := make([]float64, 4)
	_ = parallel.ForEach(n, 4, func(worker, i int) error {
		perWorker[worker] += data[i]
		return nil
	})

	grain := 16
	sums := make([]float64, (n+grain-1)/grain)
	_ = parallel.ForEach(len(sums), 4, func(_, c int) error {
		lo := c * grain
		s := 0.0
		for j := lo; j < min(lo+grain, n); j++ {
			s += data[j]
		}
		sums[lo/grain] = s
		return nil
	})

	scaled := parallel.Map(n, 4, func(i int) float64 {
		local := data[i]
		local *= 3
		return local
	})
	_ = scaled

	// A nested per-index write through the outer closure's parameter is
	// still a disjoint slot.
	_ = parallel.ForEach(n, 4, func(_, i int) error {
		func() {
			out[i] = data[i]
		}()
		return nil
	})
	return out
}
