package sz3

import (
	"math"

	"scdc/internal/grid"
	"scdc/internal/interp"
)

// chooseLorenzo estimates, on samples, whether the 3D Lorenzo predictor
// will produce a cheaper quantization index stream than multilevel
// interpolation at the given error bound, mirroring SZ3's predictor
// auto-selection. The estimate models the per-point entropy cost as
// log2(1 + |residual|/(2*eb)):
//
//   - Lorenzo residuals are sampled at stride 1, so their cost is uniform.
//   - Interpolation residuals grow with the level stride; the per-level
//     costs are weighted by the fraction of points each level holds
//     (level l holds ~(1/2^d)^(l-1) of the points in d dims).
//
// At large error bounds the coarse-level residuals still quantize to
// near-zero and interpolation wins; at small bounds the coarse levels
// dominate the cost and Lorenzo wins — reproducing the switch the paper
// observes on SegSalt at eb=1e-5 (Section VI-C).
func chooseLorenzo(f *grid.Field, eb float64, kind interp.Kind) bool {
	dims := f.Dims()
	if len(dims) < 2 {
		return false
	}
	n := f.Len()
	if n < 4096 {
		return false
	}

	lorenzoCost := sampledLorenzoCost(f, eb)
	interpCost := sampledInterpCost(f, eb, kind)
	// Require a clear margin before abandoning interpolation: Lorenzo
	// forfeits the multilevel structure, and ties favor interpolation.
	return lorenzoCost < interpCost*0.95
}

// Predictor noise floors: during real compression predictions read
// decompressed neighbors carrying +-eb quantization noise. The 7-tap
// Lorenzo stencil (coefficient magnitudes summing to 7, RMS gain sqrt(7))
// amplifies that noise far more than the convex interpolation stencils, so
// residuals never fall below a predictor-specific floor even on perfectly
// predictable data. Sampling against original values misses this floor and
// systematically flatters Lorenzo; these constants restore it.
const (
	lorenzoNoise = 1.5 // ~ sqrt(7)/sqrt(3), expected |noise| in eb units
	interpNoise  = 0.5 // cubic stencil gain sqrt(164)/16/sqrt(3)
)

func bitCostNoisy(resid, eb, noise float64) float64 {
	return math.Log2(1 + (math.Abs(resid)+noise*eb)/(2*eb))
}

// sampledLorenzoCost estimates the mean per-point cost of 3D Lorenzo on a
// strided sample, using original values as the prediction basis (a valid
// proxy at small error bounds, which is exactly when Lorenzo matters).
// The stencil spans the three fastest axes; a 2D field has no plane terms.
// chooseLorenzo has ruled out 1D fields.
func sampledLorenzoCost(f *grid.Field, eb float64) float64 {
	dims := f.Dims()
	nd := len(dims)
	d := f.Data
	run, row, plane := f.Stride(nd-1), f.Stride(nd-2), 0
	if nd >= 3 {
		plane = f.Stride(nd - 3)
	}
	// Sample on a coarse lattice, skipping borders.
	step := make([]int, nd)
	for i := range step {
		step[i] = dims[i]/17 + 1
	}
	sum, cnt := 0.0, 0
	var walk func(axis, base int)
	walk = func(axis, base int) {
		if axis == nd {
			var a, ab, ac, abc float64
			if plane != 0 {
				a, ab, ac, abc = d[base-plane], d[base-plane-row], d[base-plane-run], d[base-plane-row-run]
			}
			p := lorenzo(a, d[base-row], d[base-run], ab, ac, d[base-row-run], abc)
			sum += bitCostNoisy(d[base]-p, eb, lorenzoNoise)
			cnt++
			return
		}
		for c := 1; c < dims[axis]; c += step[axis] {
			walk(axis+1, base+c*f.Stride(axis))
		}
	}
	walk(0, 0)
	if cnt == 0 {
		return math.Inf(1)
	}
	return sum / float64(cnt)
}

// sampledInterpCost estimates the level-weighted mean cost of the
// interpolation predictor. Each level's cost is the per-axis sampled line
// cost weighted by the fraction of the level's points each pass predicts:
// with the default fastest-first direction order, the first pass covers
// 1/7 of the level's new points, the second 2/7 and the last 4/7 (per the
// 2x2x2-cell class structure of Figure 2).
func sampledInterpCost(f *grid.Field, eb float64, kind interp.Kind) float64 {
	dims := f.Dims()
	nd := len(dims)
	d := f.Data

	levels := AnchorLevels(dims)

	order := DefaultDirOrder(nd)
	strides := grid.Strides(dims)
	// Pass weights: the k-th pass of a level predicts 2^k of the 2^nd - 1
	// new points per cell.
	passW := make([]float64, nd)
	totalW := float64((int(1) << nd) - 1)
	for k := range passW {
		passW[k] = float64(int(1)<<k) / totalW
	}

	total, weight := 0.0, 0.0
	frac := 1.0 // fraction of all points contributed by the level
	levelShare := 1.0 - 1.0/math.Pow(2, float64(nd))
	for level := 1; level <= levels; level++ {
		s := 1 << (level - 1)
		levelCost, levelW := 0.0, 0.0
		for k, axis := range order {
			n := dims[axis]
			if s >= n {
				continue
			}
			strd := strides[axis]
			nlines := f.Len() / n
			lineStep := (nlines/32 + 1) | 1
			sum, cnt := 0.0, 0
			for line := 0; line < nlines && cnt < 2048; line += lineStep {
				base := grid.LineBase(dims, strides, axis, line)
				for t := s; t < n && cnt < 2048; t += 2 * s {
					p := interp.LineSlice(d, base, strd, n, t, s, kind)
					sum += bitCostNoisy(d[base+t*strd]-p, eb, interpNoise)
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			levelCost += (sum / float64(cnt)) * passW[k]
			levelW += passW[k]
		}
		if levelW == 0 {
			continue
		}
		w := frac * levelShare
		total += (levelCost / levelW) * w
		weight += w
		frac /= math.Pow(2, float64(nd))
	}
	if weight == 0 {
		return math.Inf(1)
	}
	return total / weight
}
