package qoz

import (
	"math"

	"scdc/internal/core"
	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

// orderCandidates enumerates the direction orders the tuner considers,
// the default order first: every permutation for up to 3 dims, natural and
// reversed for 4 dims.
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

// defaultPlan is the untuned plan the tuner starts from: every anchor
// level cubic, in the default direction order, at the global bound.
func defaultPlan(dims []int, opts Options) plan {
	levels := sz3.AnchorLevels(dims)
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
	return pl
}

// buildPlan resolves the full compression plan by running the auto-tuner
// from the default plan. The tuner's work is published on the "choose"
// span of opts.Obs (nil means off).
func buildPlan(f *grid.Field, opts Options) plan {
	sp := opts.Obs.Child("choose")
	defer sp.End()
	dims := f.Dims()
	pl := defaultPlan(dims, opts)
	sp.Add("levels", int64(pl.levels))

	// Stage 1: per-level spline kind and direction order from sampled
	// residuals (original data as prediction basis).
	tu := levelTuner{data: f.Data, dims: dims, strides: grid.Strides(dims), eb: opts.ErrorBound,
		orders: orderCandidates(len(dims))}
	for l := 1; l <= pl.levels; l++ {
		pl.kinds[l-1], pl.orders[l-1] = tu.tuneLevel(l)
	}
	sp.Add("samples", int64(tu.samples))
	sp.Add("candidates", int64(2*len(tu.orders)*pl.levels)) // each order scores both kinds

	// Stage 2: level-wise error bound scaling by trial compression of a
	// sampled block.
	alpha, beta := sz3.TuneLevelBounds(f, pl.ebs, opts.ErrorBound,
		func(sw *core.Sweep, dims []int, ebs []float64) {
			trial := pl
			trial.levels = len(ebs)
			trial.ebs = ebs
			compressCore(sw, dims, trial)
		})
	sp.Set("alpha", alpha)
	sp.Set("beta", beta)
	return pl
}

// levelTuner scores the (order, kind) candidates of one level after
// another on sampled points. Residuals are computed against original
// data, a faithful proxy because interpolation inputs during real
// compression are decompressed values within eb of the originals.
type levelTuner struct {
	data          []float64
	dims, strides []int
	eb            float64
	orders        [][]int // the candidates, default order first
	lin, cub      []int32 // the current order's quantized residuals per kind
	samples       int     // points visited so far
}

// tuneLevel returns the cheapest (kind, order) for the level. One visit
// of an order's samples scores both spline kinds.
func (tu *levelTuner) tuneLevel(level int) (interp.Kind, []int) {
	// The sampled score is an estimate; a candidate must beat the default
	// configuration (cubic, default order) by a clear margin, or ties on
	// noise would abandon a good default.
	const margin = 0.98
	step := samplingStep(tu.dims, level)
	var bestKind interp.Kind
	var bestOrder []int
	var bestCost float64
	for i, order := range tu.orders {
		tu.lin, tu.cub = tu.lin[:0], tu.cub[:0]
		sz3.SampleLevel(tu.dims, tu.strides, level, order, step, tu.score)
		tu.samples += len(tu.lin)
		lin, cub := cost(tu.lin), cost(tu.cub)
		if i == 0 {
			bestKind, bestOrder, bestCost = interp.Cubic, order, cub
		}
		if lin < bestCost*margin {
			bestKind, bestOrder, bestCost = interp.Linear, order, lin
		}
		if i > 0 && cub < bestCost*margin {
			bestKind, bestOrder, bestCost = interp.Cubic, order, cub
		}
	}
	return bestKind, bestOrder
}

// score quantizes the residuals of both spline kinds at one sampled
// point.
//
//scdc:noalloc
func (tu *levelTuner) score(idx, lineBase, lineStrd, n, t, s int) {
	v := tu.data[idx]
	lin, cub := interp.LinearCubic(tu.data, lineBase, lineStrd, n, t, s)
	tu.lin = append(tu.lin, tu.symbol(v-lin))
	tu.cub = append(tu.cub, tu.symbol(v-cub))
}

// symbol is the quantization index a residual would be stored as,
// clamped to ±1e6 and rounded by quantizer.RoundIndex. A NaN residual (a
// NaN sample, or Inf-Inf) maps to math.MinInt32 explicitly: the Go spec
// leaves the conversion of NaN implementation-defined, and the plan, and
// so the stream, must not depend on the platform.
func (tu *levelTuner) symbol(resid float64) int32 {
	r := resid / (2 * tu.eb)
	if !(math.Abs(r) <= 1e6) {
		if math.IsNaN(r) {
			return math.MinInt32
		}
		r = math.Copysign(1e6, r)
	}
	return quantizer.RoundIndex(r)
}

// cost estimates a candidate's price as the empirical entropy of its
// quantized sampled residuals — the quantity the Huffman stage actually
// pays for. (A raw-residual score would over-reward accuracy below the
// error bound, where all residuals quantize to the same symbol anyway.)
func cost(symbols []int32) float64 {
	if len(symbols) == 0 {
		return math.Inf(1)
	}
	return entropy.Shannon(symbols)
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
	pts := n >> uint(3*(level-1)) // rough level population
	step := pts / 4096
	if step < 1 {
		step = 1
	}
	return step | 1
}
