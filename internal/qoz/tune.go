package qoz

import (
	"math"

	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/huffman"
	"scdc/internal/interp"
	"scdc/internal/sz3"
)

// orderCandidates enumerates the direction orders the tuner considers:
// every permutation for up to 3 dims, natural and reversed for 4 dims.
func orderCandidates(nd int) [][]int {
	switch nd {
	case 1:
		return [][]int{{0}}
	case 2:
		return [][]int{{1, 0}, {0, 1}}
	case 3:
		return [][]int{
			{2, 1, 0}, {2, 0, 1}, {1, 2, 0}, {1, 0, 2}, {0, 2, 1}, {0, 1, 2},
		}
	default:
		return [][]int{{3, 2, 1, 0}, {0, 1, 2, 3}}
	}
}

// ebCandidates are the (alpha, beta) pairs the tuner tries for level-wise
// error bound scaling eb_l = max(eb/alpha^(l-1), eb/beta); (1, 1) is the
// SZ3 behavior of a uniform bound.
var ebCandidates = [][2]float64{{1, 1}, {1.25, 2}, {1.5, 2}, {2, 3}}

// buildPlan resolves the full compression plan, running the auto-tuner
// when requested.
func buildPlan(f *grid.Field, opts Options) plan {
	dims := f.Dims()
	levels := sz3.Levels(dims)
	if levels > maxAnchorLevels {
		levels = maxAnchorLevels
	}
	if levels < 1 {
		levels = 1
	}
	pl := plan{
		levels: levels,
		kinds:  make([]interp.Kind, levels),
		orders: make([][]int, levels),
		ebs:    make([]float64, levels),
		radius: opts.Radius,
	}
	def := sz3.DefaultDirOrder(len(dims))
	for l := 0; l < levels; l++ {
		pl.kinds[l] = interp.Cubic
		pl.orders[l] = def
		pl.ebs[l] = opts.ErrorBound
	}
	if !opts.Tune {
		return pl
	}

	// Stage 1: per-level spline kind and direction order from sampled
	// residuals (original data as prediction basis).
	for l := 1; l <= levels; l++ {
		kind, order := tuneLevel(f, l, opts.ErrorBound)
		pl.kinds[l-1] = kind
		pl.orders[l-1] = order
	}

	// Stage 2: level-wise error bound scaling by trial compression of a
	// sampled block.
	alpha, beta := tuneEB(f, pl, opts)
	for l := 1; l <= levels; l++ {
		eb := opts.ErrorBound / math.Pow(alpha, float64(l-1))
		if floor := opts.ErrorBound / beta; eb < floor {
			eb = floor
		}
		pl.ebs[l-1] = eb
	}
	return pl
}

// tuneLevel scores each (kind, order) candidate on a sample of the level's
// points and returns the cheapest. Residuals are computed against original
// data, a faithful proxy because interpolation inputs during real
// compression are decompressed values within eb of the originals.
func tuneLevel(f *grid.Field, level int, eb float64) (interp.Kind, []int) {
	dims := f.Dims()
	strides := grid.Strides(dims)
	data := f.Data

	// score estimates a candidate's cost as the empirical entropy of the
	// quantized sampled residuals — the quantity the Huffman stage
	// actually pays for. (A raw-residual score would over-reward accuracy
	// below the error bound, where all residuals quantize to the same
	// symbol anyway.)
	step := samplingStep(dims, level)
	score := func(kind interp.Kind, order []int) float64 {
		hist := make(map[int32]int)
		cnt := 0
		decim := 0
		sz3.WalkScheduleLevel(dims, strides, level, order, func(pt *sz3.Point) {
			decim++
			if decim%step != 0 {
				return
			}
			base, strd := pt.LineBase, pt.LineStrd
			p := interp.Line(func(pos int) float64 {
				return data[base+pos*strd]
			}, pt.N, pt.T, pt.S, kind)
			r := (data[pt.Idx] - p) / (2 * eb)
			if math.Abs(r) > 1e6 {
				r = math.Copysign(1e6, r)
			}
			hist[int32(math.Round(r))]++
			cnt++
		})
		if cnt == 0 {
			return math.Inf(1)
		}
		return entropy.FromHistogram(hist, cnt)
	}

	// The sampled score is an estimate; a candidate must beat the default
	// configuration (cubic, default order) by a clear margin, or ties on
	// noise would abandon a good default.
	defOrder := sz3.DefaultDirOrder(len(dims))
	bestKind, bestOrder := interp.Cubic, defOrder
	bestCost := score(interp.Cubic, defOrder)
	const margin = 0.98
	for _, order := range orderCandidates(len(dims)) {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			if kind == interp.Cubic && sameOrder(order, defOrder) {
				continue
			}
			if c := score(kind, order); c < bestCost*margin {
				bestCost, bestKind, bestOrder = c, kind, order
			}
		}
	}
	return bestKind, bestOrder
}

func sameOrder(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samplingStep keeps per-level tuning to a few thousand samples. The step
// is forced odd so it cannot alias with the power-of-two line lengths of
// the schedule (an even step can land every sample on the same in-line
// position, e.g. always the extrapolated end point).
func samplingStep(dims []int, level int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	pts := n >> uint(minInt(3*(level-1), 30)) // rough level population
	step := pts / 4096
	if step < 1 {
		step = 1
	}
	return step | 1
}

// tuneEB trial-compresses a centered crop of the field under each
// (alpha, beta) candidate and returns the pair with the smallest encoded
// index stream. Tighter coarse-level bounds cost bits at coarse levels but
// can repay them through better fine-level predictions; the trial measures
// the net effect directly.
func tuneEB(f *grid.Field, pl plan, opts Options) (alpha, beta float64) {
	crop := centerCrop(f, 32)
	bestBits := math.MaxInt64
	best := ebCandidates[0]
	for _, cand := range ebCandidates {
		trial := pl
		trial.ebs = make([]float64, pl.levels)
		trial.orders = pl.orders
		trial.kinds = pl.kinds
		// The crop may support fewer levels than the full field.
		cropLevels := sz3.Levels(crop.Dims())
		if cropLevels < 1 {
			cropLevels = 1
		}
		if cropLevels > pl.levels {
			cropLevels = pl.levels
		}
		trial.levels = cropLevels
		trial.kinds = pl.kinds[:cropLevels]
		trial.orders = pl.orders[:cropLevels]
		trial.ebs = trial.ebs[:cropLevels]
		for l := 1; l <= cropLevels; l++ {
			eb := opts.ErrorBound / math.Pow(cand[0], float64(l-1))
			if floor := opts.ErrorBound / cand[1]; eb < floor {
				eb = floor
			}
			trial.ebs[l-1] = eb
		}
		data := append([]float64(nil), crop.Data...)
		q := make([]int32, len(data))
		_, literals := compressCore(data, crop.Dims(), trial, q, nil, nil, 1, nil, nil)
		bits := len(huffman.Encode(q)) + 8*len(literals)
		if bits < bestBits {
			bestBits = bits
			best = cand
		}
	}
	return best[0], best[1]
}

// centerCrop extracts a centered sub-field with extents capped at m.
func centerCrop(f *grid.Field, m int) *grid.Field {
	dims := f.Dims()
	nd := len(dims)
	ext := make([]int, nd)
	off := make([]int, nd)
	for d, n := range dims {
		ext[d] = n
		if ext[d] > m {
			ext[d] = m
		}
		off[d] = (n - ext[d]) / 2
	}
	out := grid.MustNew(ext...)
	strides := grid.Strides(dims)
	ostr := grid.Strides(ext)
	var walk func(axis, src, dst int)
	walk = func(axis, src, dst int) {
		if axis == nd {
			out.Data[dst] = f.Data[src]
			return
		}
		for c := 0; c < ext[axis]; c++ {
			walk(axis+1, src+(off[axis]+c)*strides[axis], dst+c*ostr[axis])
		}
	}
	walk(0, 0, 0)
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
