package hpez

import (
	"math"
	"sort"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/sz3"
)

// defaultPlan is the untuned plan the tuner starts from: no axis frozen,
// uniform weights and cubic splines everywhere, every anchor level at the
// global bound.
func defaultPlan(dims []int, opts Options) plan {
	levels := sz3.AnchorLevels(dims)
	pl := plan{
		levels:    levels,
		ebs:       make([]float64, levels),
		frozen:    make([]uint8, levels),
		weights:   make([][4]uint8, levels),
		radius:    opts.Radius,
		blockGrid: blockGridDims(dims),
	}
	pl.blockCubic, pl.blockWeights = defaultBlockTables(pl.blockGrid)
	for l := 0; l < levels; l++ {
		pl.ebs[l] = opts.ErrorBound
		pl.weights[l] = [4]uint8{255, 255, 255, 255}
	}
	return pl
}

// buildPlan resolves the compression plan by tuning the default plan:
// dimension freezing per level, block-wise spline kinds, and level-wise
// error bounds.
func buildPlan(f *grid.Field, opts Options) plan {
	dims := f.Dims()
	pl := defaultPlan(dims, opts)
	for l := 1; l <= pl.levels; l++ {
		pl.frozen[l-1], pl.weights[l-1] = tuneAxes(f, l, opts.ErrorBound)
	}
	tuneBlocks(f, &pl, bestAxis(pl.weights[0], len(dims)), opts.ErrorBound)
	tuneBlockWeights(f, &pl, opts.ErrorBound)

	// Level-wise error bounds by trial compression of a crop, as in QoZ.
	// The crop has its own block grid, so its trials run with the default
	// block tables.
	sz3.TuneLevelBounds(f, pl.ebs, opts.ErrorBound,
		func(sw *core.Sweep, dims []int, ebs []float64) {
			trial := pl
			trial.levels = len(ebs)
			trial.ebs = ebs
			trial.blockGrid = blockGridDims(dims)
			trial.blockCubic, trial.blockWeights = defaultBlockTables(trial.blockGrid)
			compressCore(sw, dims, trial)
		})
	return pl
}

// defaultBlockTables returns the untuned block tables for a block grid:
// cubic everywhere, uniform weights.
func defaultBlockTables(g []int) (cubic []byte, weights [][4]uint8) {
	cubic = make([]byte, (numBlocks(g)+7)/8)
	for i := range cubic {
		cubic[i] = 0xff
	}
	weights = make([][4]uint8, numBlocks(g))
	for i := range weights {
		weights[i] = [4]uint8{255, 255, 255, 255}
	}
	return cubic, weights
}

// tuneAxes measures, per axis, the 1D interpolation residual at the
// level's stride on sampled lines, then derives HPEZ's auto-tuned
// multi-component weights (weight ~ 1/residual^2, so stencils along more
// predictable axes dominate the average) and its dynamic dimension
// freezing mask (an axis far worse than the best is dropped entirely).
// The per-axis statistic is a trimmed mean — the top decile of |residual|
// is discarded — so a localized discontinuity does not condemn a globally
// good axis. An axis is never frozen when it is the only usable one.
func tuneAxes(f *grid.Field, level int, eb float64) (uint8, [4]uint8) {
	dims := f.Dims()
	strides := grid.Strides(dims)
	nd := len(dims)
	s := 1 << (level - 1)
	weights := [4]uint8{255, 255, 255, 255}

	resid := make([]float64, nd)
	for d := 0; d < nd; d++ {
		if dims[d] <= 2*s {
			resid[d] = math.Inf(1)
			continue
		}
		samples := make([]float64, 0, 4096)
		// Sample lines along axis d from a decimated set of bases.
		nlines := f.Len() / dims[d]
		lstep := (nlines/32 + 1) | 1
		for line := 0; line < nlines && len(samples) < 4096; line += lstep {
			base := grid.LineBase(dims, strides, d, line)
			for t := s; t < dims[d] && len(samples) < 4096; t += 2 * s {
				p := interp.LineSlice(f.Data, base, strides[d], dims[d], t, s, interp.Cubic)
				samples = append(samples, math.Abs(f.Data[base+t*strides[d]]-p))
			}
		}
		if len(samples) == 0 {
			resid[d] = math.Inf(1)
			continue
		}
		resid[d] = trimmedMean(samples, 0.10)
	}
	rel, best, ok := relWeights(resid, eb)
	if !ok {
		return 0, weights
	}
	var mask uint8
	for d := 0; d < nd; d++ {
		if math.IsInf(resid[d], 1) {
			weights[d] = 0
			continue
		}
		weights[d] = weightByte(rel[d], 1)
		if resid[d] > freezeFactor*best && resid[d] > eb {
			mask |= 1 << uint(d)
		}
	}
	return mask, weights
}

// relWeights turns per-axis residuals (+Inf marks an axis with nothing
// to measure) into weights relative to the best axis: weight ~
// 1/(resid^2 + noise floor), in (0, 1], and 0 on an unusable axis. The
// floor (half a quantum) stops sub-bound accuracy differences from
// skewing the weights. ok is false when fewer than two axes are usable —
// there is nothing to weigh against. Rounding to the stored byte is the
// caller's.
func relWeights(resid []float64, eb float64) (rel [4]float64, best float64, ok bool) {
	best = math.Inf(1)
	usable := 0
	for _, r := range resid {
		if !math.IsInf(r, 1) {
			usable++
		}
		if r < best {
			best = r
		}
	}
	if usable <= 1 || math.IsInf(best, 1) {
		return rel, best, false
	}
	floor := eb * eb / 4
	wbest := 1.0 / (best*best + floor)
	for d, r := range resid {
		if !math.IsInf(r, 1) {
			rel[d] = (1.0 / (r*r + floor)) / wbest
		}
	}
	return rel, best, true
}

// weightByte rounds a relative weight to its stored byte, at least lo. A
// NaN weight — an axis whose residual sample held a NaN — is 0 explicitly:
// the Go spec leaves converting NaN to an integer implementation-defined
// (amd64 and arm64 give 0, riscv64 255), and the plan, and so the stream,
// must not depend on the platform.
func weightByte(rel, lo float64) uint8 {
	if math.IsNaN(rel) {
		return 0
	}
	return uint8(math.Max(lo, math.Round(255*rel)))
}

// trimmedMean returns the mean of samples after discarding the top trim
// fraction of values (samples is reordered in place).
func trimmedMean(samples []float64, trim float64) float64 {
	keep := len(samples) - int(float64(len(samples))*trim)
	if keep < 1 {
		keep = 1
	}
	// Partial selection: simple sort is fine at <=4096 samples.
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples[:keep] {
		sum += v
	}
	return sum / float64(keep)
}

// bestAxis returns the axis with the largest tuned weight — the one whose
// stencils dominate the prediction and whose kernel choice therefore
// matters most.
func bestAxis(w [4]uint8, nd int) int {
	ax := nd - 1
	for d := 0; d < nd; d++ {
		if w[d] > w[ax] {
			ax = d
		}
	}
	return ax
}

// tuneBlocks picks linear vs cubic per block by comparing sampled stride-2
// residuals along the given axis (the globally dominant one) inside each
// block.
func tuneBlocks(f *grid.Field, pl *plan, ax int, eb float64) {
	dims := f.Dims()
	strides := grid.Strides(dims)
	if dims[ax] < 8 {
		return // too thin to measure; keep cubic
	}
	forEachBlock(pl.blockGrid, func(bidx int, origin []int) {
		cub, lin, _ := blockResiduals(f, dims, strides, origin, ax, eb)
		if lin < cub {
			pl.blockCubic[bidx/8] &^= 1 << uint(bidx%8)
		}
	})
}

// forEachBlock visits the blocks of grid g in the row-major order of the
// block tables, with each block's table index and the field coordinates
// of its origin (reused between calls).
func forEachBlock(g []int, fn func(bidx int, origin []int)) {
	origin := make([]int, len(g))
	for bidx, n := 0, numBlocks(g); bidx < n; bidx++ {
		rem := bidx
		for d := len(g) - 1; d >= 0; d-- {
			origin[d] = rem % g[d] * blockSize
			rem /= g[d]
		}
		fn(bidx, origin)
	}
}

// blockLineBase returns the flat index of position 0 along ax of a line
// through the block at origin, moved off points from the origin along
// every axis in the shift mask and clamped to the field.
func blockLineBase(dims, strides, origin []int, ax int, shift uint, off int) int {
	base := 0
	for d := range dims {
		if d == ax {
			continue
		}
		c := origin[d]
		if shift&(1<<uint(d)) != 0 {
			c += off
		}
		if c >= dims[d] {
			c = dims[d] - 1
		}
		base += c * strides[d]
	}
	return base
}

// Quantization noise floors of the block tuner's two stencils, in eb
// units: the cubic stencil amplifies decompressed-neighbour noise ~1.29x
// against linear's 1.0x.
const (
	cubicNoise  = 0.645
	linearNoise = 0.5
)

// blockResiduals samples cubic and linear stride-2 residuals along axis
// ax on a few lines through the block at origin.
func blockResiduals(f *grid.Field, dims, strides []int, origin []int, ax int, eb float64) (cubic, linear float64, sampled int) {
	nd := len(dims)
	n := dims[ax]
	vary := ax - 1
	if vary < 0 {
		vary = nd - 1
		if vary == ax {
			vary = -1
		}
	}

	nlines, shift := 1, uint(0)
	if vary >= 0 {
		nlines, shift = 4, 1<<uint(vary)
	}
	for li := 0; li < nlines; li++ {
		base := blockLineBase(dims, strides, origin, ax, shift, li*(blockSize/4))
		strd := strides[ax]
		hi := origin[ax] + blockSize
		if hi > n {
			hi = n
		}
		// Odd multiples of s=2 (t = 2, 6, 10, ... within the block). The
		// score is SZ3's entropy-cost model with each kernel's own
		// quantization noise floor.
		for t := origin[ax] + 2; t < hi; t += 4 {
			pl, pc := interp.LinearCubic(f.Data, base, strd, n, t, 2)
			v := f.Data[base+t*strd]
			cubic += sz3.BitCostNoisy(v-pc, eb, cubicNoise)
			linear += sz3.BitCostNoisy(v-pl, eb, linearNoise)
			sampled++
		}
	}
	if sampled == 0 {
		return 0, 1, 0 // keep cubic
	}
	return cubic, linear, sampled
}

// tuneBlockWeights derives per-block per-axis weights from sampled
// stride-2 residuals inside each block — HPEZ's block-wise interpolation
// tuning. Blocks that a sharp feature crosses along one axis down-weight
// that axis locally without penalizing it everywhere else.
func tuneBlockWeights(f *grid.Field, pl *plan, eb float64) {
	dims := f.Dims()
	strides := grid.Strides(dims)
	nd := len(dims)
	forEachBlock(pl.blockGrid, func(bidx int, origin []int) {
		var resid [4]float64
		for d := 0; d < nd; d++ {
			resid[d] = blockAxisResidual(f, dims, strides, origin, d)
		}
		rel, _, ok := relWeights(resid[:nd], eb)
		if !ok {
			return // keep uniform weights
		}
		var w [4]uint8
		for d := 0; d < nd; d++ {
			w[d] = weightByte(rel[d], 0)
			// Snap marginal contributors to zero: on an axis whose
			// residual dwarfs the best axis (a sharp feature crossing
			// the block), even a sub-percent weight injects
			// many-quanta errors into otherwise clean predictions.
			if w[d] < 16 {
				w[d] = 0
			}
		}
		if w == [4]uint8{} {
			return // degenerate: keep the uniform default
		}
		pl.blockWeights[bidx] = w
	})
}

// blockAxisResidual samples |cubic stride-2 residual| along one axis on a
// few lines through the block, returning the trimmed mean (or +Inf when
// the axis has no room in this block).
func blockAxisResidual(f *grid.Field, dims, strides []int, origin []int, ax int) float64 {
	n := dims[ax]
	if origin[ax]+4 >= n {
		return math.Inf(1)
	}
	samples := make([]float64, 0, 64)
	for li := 0; li < 4; li++ {
		base := blockLineBase(dims, strides, origin, ax, ^uint(0), li*(blockSize/4))
		strd := strides[ax]
		hi := origin[ax] + blockSize
		if hi > n {
			hi = n
		}
		for t := origin[ax] + 2; t < hi; t += 4 {
			p := interp.LineSlice(f.Data, base, strd, n, t, 2, interp.Cubic)
			samples = append(samples, math.Abs(f.Data[base+t*strd]-p))
		}
	}
	if len(samples) == 0 {
		return math.Inf(1)
	}
	return trimmedMean(samples, 0.10)
}
