package sz3

import (
	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// This file is the compression engine shared by SZ3 and QoZ (both drive
// the same multilevel interpolation schedule). Within one pass every
// predicted point reads only lattice values at even multiples of s along
// its own line — all established before the pass starts — and writes only
// its own slot, so the pass kernels may visit its lines in any order
// (interp_kernel.go picks the stride order).
//
// The QP index transform couples the lines of a pass (the Left/Top
// neighbors of a point belong to other lines), so it runs as a separate
// sweep over the index array after each pass (compression) or before it
// (decompression): core.Sweep's ForwardQP/InverseQP on the pass's
// core.Region, (*pass).qpRegion.

// LevelSpec supplies the per-level parameters of an interpolation
// schedule: the direction order, spline kind and quantizer for that level.
// SZ3 uses one spec for all levels; QoZ tunes each level separately.
type LevelSpec struct {
	Order []int
	Kind  interp.Kind
	Quant quantizer.Linear
}

// CompressSchedule runs interpolation + quantization over the full
// multilevel schedule on sw, with the QP transform after every pass.
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

// compressPass runs one pass through the forward kernels
// (interp_kernel.go) and appends its literals in line order.
func compressPass(sw *core.Sweep, pa *pass, kind interp.Kind, quant quantizer.Linear) {
	rg, pk := pa.qpRegion(), makePassKern(pa, kind, quant)
	if pk.sweep(true, sw.Data, sw.Sym, rg) > 0 {
		sw.Lits = gatherLits(sw.Data, sw.Sym, rg, sw.Lits)
	}
}

// decompressPass reconstructs one pass through the inverse kernels, then
// places its literals in line order.
func decompressPass(sw *core.Sweep, pa *pass, kind interp.Kind, quant quantizer.Linear) error {
	rg, pk := pa.qpRegion(), makePassKern(pa, kind, quant)
	nu := pk.sweep(false, sw.Data, sw.Sym, rg)
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
