// Package entropy computes Shannon entropy and symbol histograms for
// quantization index arrays, as used throughout the paper's
// characterization (Section IV) and the QP objective (Section V-A):
// minimize H(f(Q)) subject to f being reversible.
package entropy

import "math"

// Shannon returns the Shannon entropy H(Q) = -sum p_i log2 p_i in bits per
// symbol, leaving q as it is. An empty array has zero entropy. The symbols
// are counted into Analyze's pooled lane histogram (a map when their range
// is too wide) and the terms summed in ascending symbol order, so the
// result is independent of the order of q, bit for bit, and a dense count
// allocates nothing.
func Shannon(q []int32) float64 {
	if len(q) == 0 {
		return 0
	}
	inv := 1.0 / float64(len(q))
	e := 0.0
	hp := lanePool.Get().(*[][lanes]uint32)
	defer lanePool.Put(hp)
	if _, ok := countDense(hp, q); !ok {
		for _, sc := range analyzeSparse(&Dist{N: len(q)}, q).Syms {
			p := float64(sc.Count) * inv
			e -= p * math.Log2(p)
		}
		return e
	}
	for _, c := range *hp {
		if n := c[0] + c[1]; n != 0 {
			p := float64(n) * inv
			e -= p * math.Log2(p)
		}
	}
	return e
}
