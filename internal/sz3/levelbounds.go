package sz3

import (
	"math"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/huffman"
)

// This file is the level-wise error-bound tuner QoZ and HPEZ share: both
// compress coarse levels under a tighter bound
// eb_l = max(eb/alpha^(l-1), eb/beta), which costs bits at coarse levels
// but can repay them through better predictions at the much larger fine
// levels, and both pick (alpha, beta) by trial compression of a crop.

// ebCandidates are the (alpha, beta) pairs tried; (1, 1) is the SZ3
// behavior of a uniform bound.
var ebCandidates = [][2]float64{{1, 1}, {1.25, 2}, {1.5, 2}, {2, 3}}

// levelBounds fills ebs (index level-1) with eb_l for the given scaling.
func levelBounds(ebs []float64, eb, alpha, beta float64) {
	for l := range ebs {
		ebs[l] = math.Max(eb/math.Pow(alpha, float64(l)), eb/beta)
	}
}

// TuneLevelBounds trial-compresses a centered crop of f under each
// (alpha, beta) candidate, keeps the pair with the smallest encoded index
// stream — the trial measures the net effect of the scaling directly, and
// prices the stream by its exact Huffman length without encoding it —
// and fills ebs, one entry per level of the caller's plan, with the
// winner's bounds. trial runs the caller's pipeline on a bare sweep over
// the crop, of the given dims, under the per-level bounds it is handed
// (the crop may support fewer levels than the plan).
func TuneLevelBounds(f *grid.Field, ebs []float64, eb float64,
	trial func(sw *core.Sweep, dims []int, ebs []float64)) (alpha, beta float64) {

	crop := CenterCrop(f, 32)
	dims := crop.Dims()
	cropLevels := min(max(Levels(dims), 1), len(ebs))
	trialEBs := make([]float64, cropLevels)
	data := make([]float64, len(crop.Data))
	q := make([]int32, len(crop.Data))

	best, bestBytes := ebCandidates[0], math.MaxInt
	for _, cand := range ebCandidates {
		levelBounds(trialEBs, eb, cand[0], cand[1])
		copy(data, crop.Data)
		sw := core.NewSweep(data, q)
		trial(sw, dims, trialEBs)
		if bytes := huffman.EncodedLen(q) + 8*len(sw.Lits); bytes < bestBytes {
			best, bestBytes = cand, bytes
		}
	}
	levelBounds(ebs, eb, best[0], best[1])
	return best[0], best[1]
}

// CenterCrop extracts a centered sub-field with extents capped at m.
func CenterCrop(f *grid.Field, m int) *grid.Field {
	dims := f.Dims()
	nd := len(dims)
	ext := make([]int, nd)
	off := make([]int, nd)
	for d, n := range dims {
		ext[d] = min(n, m)
		off[d] = (n - ext[d]) / 2
	}
	out := grid.MustNew(ext...)
	strides := grid.Strides(dims)
	ostr := grid.Strides(ext)
	var walk func(axis, src, dst int)
	walk = func(axis, src, dst int) {
		if axis == nd-1 { // the fastest axis is contiguous on both sides
			copy(out.Data[dst:dst+ext[axis]], f.Data[src+off[axis]:])
			return
		}
		for c := 0; c < ext[axis]; c++ {
			walk(axis+1, src+(off[axis]+c)*strides[axis], dst+c*ostr[axis])
		}
	}
	walk(0, 0, 0)
	return out
}
