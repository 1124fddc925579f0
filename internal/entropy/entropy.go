// Package entropy computes Shannon entropy and symbol histograms for
// quantization index arrays, as used throughout the paper's
// characterization (Section IV) and the QP objective (Section V-A):
// minimize H(f(Q)) subject to f being reversible.
package entropy

import (
	"math"
	"slices"
	"sort"
)

// Histogram counts symbol occurrences in q. The map form tolerates the
// full int32 range without allocating dense tables.
func Histogram(q []int32) map[int32]int {
	h := make(map[int32]int)
	for _, v := range q {
		h[v]++
	}
	return h
}

// Shannon returns the Shannon entropy H(Q) = -sum p_i log2 p_i in bits per
// symbol. An empty array has zero entropy.
func Shannon(q []int32) float64 {
	if len(q) == 0 {
		return 0
	}
	return FromHistogram(Histogram(q), len(q))
}

// ShannonSort returns Shannon(q) bit for bit without allocating: it sorts q
// in place and sums the runs of equal symbols, which is the ascending
// symbol order FromHistogram accumulates in.
func ShannonSort(q []int32) float64 {
	slices.Sort(q)
	inv := 1.0 / float64(len(q))
	e := 0.0
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j] == q[i] {
			j++
		}
		p := float64(j-i) * inv
		e -= p * math.Log2(p)
		i = j
	}
	return e
}

// FromHistogram computes entropy from precomputed counts with total n.
func FromHistogram(h map[int32]int, n int) float64 {
	if n == 0 {
		return 0
	}
	// Accumulate in sorted symbol order: float addition is not
	// associative, and map iteration order would otherwise make the
	// low-order bits of the result vary from run to run.
	syms := make([]int32, 0, len(h))
	for s := range h {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	inv := 1.0 / float64(n)
	e := 0.0
	for _, s := range syms {
		c := h[s]
		if c == 0 {
			continue
		}
		p := float64(c) * inv
		e -= p * math.Log2(p)
	}
	return e
}
