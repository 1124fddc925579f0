// Package entropy computes Shannon entropy and symbol histograms for
// quantization index arrays, as used throughout the paper's
// characterization (Section IV) and the QP objective (Section V-A):
// minimize H(f(Q)) subject to f being reversible.
package entropy

import (
	"math"
	"slices"
)

// Shannon returns the Shannon entropy H(Q) = -sum p_i log2 p_i in bits per
// symbol, leaving q as it is. An empty array has zero entropy.
func Shannon(q []int32) float64 {
	return ShannonSort(slices.Clone(q))
}

// ShannonSort is Shannon without allocating: it sorts q in place and sums
// the runs of equal symbols. Accumulating in ascending symbol order makes
// the result independent of the order of q, bit for bit.
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
