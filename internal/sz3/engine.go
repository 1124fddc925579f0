package sz3

import (
	"fmt"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/obs"
	"scdc/internal/parallel"
	"scdc/internal/quantizer"
)

// This file is the intra-field parallel compression engine shared by SZ3
// and QoZ (both drive the same multilevel interpolation schedule).
//
// Parallelism invariant: within one pass, every predicted point reads only
// (a) lattice values at even multiples of s along its own line — all
// established before the pass starts — and (b) its own slot of data/q.
// Lines of a pass therefore never read each other's writes, so a pass can
// be split across workers at line granularity and still produce the exact
// floating-point results of the sequential sweep.
//
// The QP index transform has intra-pass coupling (the Left/Top neighbors
// of a point belong to other lines of the same pass), so it runs as a
// separate sweep over the index array after each pass (compression) or
// before it (decompression): core.Sweep's ForwardQP/InverseQP on the
// pass's core.Region, (*pass).qpRegion. The forward direction splits
// across workers freely (it reads only original symbols), and the inverse
// direction plane-parallelizes for modes without a Back dependency —
// all bit-identical to the sequential per-point Compensate order.

// minParallelPoints is the smallest pass size (in predicted points) worth
// fanning out; below it the goroutine handoff costs more than the work.
const minParallelPoints = 4096

// LevelSpec supplies the per-level parameters of an interpolation
// schedule: the direction order, spline kind and quantizer for that level.
// SZ3 uses one spec for all levels; QoZ tunes each level separately.
type LevelSpec struct {
	Order []int
	Kind  interp.Kind
	Quant quantizer.Linear
}

// CompressSchedule runs interpolation + quantization over the full
// multilevel schedule on sw, splitting each pass's lines across up to
// sw.Workers goroutines (one worker is the sequential path; both
// produce identical symbols, data and literal streams), with the QP
// transform after every pass.
//
// An observed sweep's stage span gains per-pass and per-chunk child spans
// for passes large enough to run parallel — the worker-skew view.
func CompressSchedule(sw *core.Sweep, dims []int, levels int, specFor func(level int) LevelSpec) {
	strides := grid.Strides(dims)
	for level := levels; level >= 1; level-- {
		lsp := specFor(level)
		forEachPass(dims, strides, level, lsp.Order, func(pa *pass) {
			compressPass(sw, pa, lsp.Kind, lsp.Quant)
			sw.ForwardQP(pa.qpRegion())
		})
	}
}

// DecompressSchedule reverses CompressSchedule: before each pass the
// inverse QP sweep recovers the pass's original symbols in place. The
// literals an origin or anchor stage consumed before the schedule are
// behind sw.Lit already.
func DecompressSchedule(sw *core.Sweep, dims []int, levels int, specFor func(level int) LevelSpec) error {
	strides := grid.Strides(dims)
	var decErr error
	for level := levels; level >= 1 && decErr == nil; level-- {
		lsp := specFor(level)
		forEachPass(dims, strides, level, lsp.Order, func(pa *pass) {
			if decErr != nil {
				return
			}
			sw.InverseQP(pa.qpRegion())
			decErr = decompressPass(sw, pa, lsp.Kind, lsp.Quant)
		})
	}
	if decErr != nil {
		return decErr
	}
	return sw.Drained()
}

// passSpan opens a wall-clock span for one parallel pass under the
// sweep's stage span, or nil when observation is off.
func passSpan(parent *obs.Span, pa *pass, kind interp.Kind) *obs.Span {
	if parent == nil {
		return nil
	}
	sp := parent.Child(fmt.Sprintf("pass[L%d d%d]", pa.level, pa.dir))
	sp.Add("lines", int64(pa.numLines))
	sp.Add("points", int64(pa.numLines*pa.pointsPerLine))
	sp.Add("kind", int64(kind))
	return sp
}

// chunkSpan opens a per-work-chunk span under a pass span (nil-safe).
// Chunk spans start when a worker picks the chunk up and end when it
// finishes, so scheduling skew is directly visible in the span tree.
func chunkSpan(passSp *obs.Span, chunk int) *obs.Span {
	if passSp == nil {
		return nil
	}
	return passSp.Child(fmt.Sprintf("chunk[%d]", chunk))
}

// compressPass runs one pass through the forward kernels
// (interp_kernel.go) and appends its literals in line order.
func compressPass(sw *core.Sweep, pa *pass, kind interp.Kind, quant quantizer.Linear) {
	rg := pa.qpRegion()
	if sweepPass(sw, pa, rg, kind, quant, &fwdKernels) > 0 {
		sw.Lits = gatherLits(sw.Data, sw.Sym, rg, sw.Lits)
	}
}

// decompressPass reconstructs one pass through the inverse kernels, then
// places its literals in line order.
func decompressPass(sw *core.Sweep, pa *pass, kind interp.Kind, quant quantizer.Linear) error {
	rg := pa.qpRegion()
	nu := sweepPass(sw, pa, rg, kind, quant, &invKernels)
	if nu == 0 {
		return nil
	}
	if nu > len(sw.Lits)-sw.Lit {
		return sw.Exhausted()
	}
	scatterLits(sw.Data, sw.Sym, rg, sw.Lits[sw.Lit:])
	sw.Lit += nu
	return nil
}

// sweepPass runs one direction's kernels over a pass, its lines split
// across sw.Workers goroutines in contiguous chunks when the pass is
// large enough, and returns the number of unpredictable points.
func sweepPass(sw *core.Sweep, pa *pass, rg core.Region, kind interp.Kind, quant quantizer.Linear, kern *kernelTable) int {
	pk := makePassKern(pa, kind, quant)
	data, sym, workers := sw.Data, sw.Sym, sw.Workers
	if workers <= 1 || pa.numLines < 2 || pa.numLines*pa.pointsPerLine < minParallelPoints {
		return pk.sweep(kern, data, sym, rg, 0, pa.numLines)
	}
	passSp := passSpan(sw.Span(), pa, kind)
	grain := core.RegionGrain(pa.numLines, pa.pointsPerLine, workers)
	counts := make([]int, parallel.Chunks(pa.numLines, grain))
	pkc := pk // only the parallel path's closure moves its copy to the heap
	parallel.ForEachChunked(pa.numLines, workers, grain, func(lo, hi int) {
		csp := chunkSpan(passSp, lo/grain)
		counts[lo/grain] = pkc.sweep(kern, data, sym, rg, lo, hi)
		csp.Add("lines", int64(hi-lo))
		csp.End()
	})
	passSp.End()
	nu := 0
	for _, c := range counts {
		nu += c
	}
	return nu
}
