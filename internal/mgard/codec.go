package mgard

import (
	"fmt"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lattice"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
)

// compressCore runs the MGARD decomposition fine-to-coarse. data is
// overwritten: fine positions hold decompressed values, coarse lattice
// positions hold the corrected coarse approximation, which is returned as
// the raw coarse stream.
func compressCore(data []float64, dims []int, opts Options, levels int,
	q, qp []int32, pred *core.Predictor, workers int, qpSp *obs.Span) (coarse, literals []float64) {

	strides := grid.Strides(dims)
	ebl := levelBound(opts.ErrorBound, levels)
	quant := quantizer.Linear{EB: ebl, Radius: opts.Radius}
	qpWsp := core.WorkerSpans(qpSp, workers)

	sw := sweep{data: data, sym: q, fwd: true, quant: quant}
	for level := 1; level <= levels; level++ {
		// Pass 1: quantize detail coefficients against the multilinear
		// prediction from the (uncorrected) coarse lattice (kernel.go).
		classes := lattice.Classes(dims, strides, level)
		sw.sweepLevel(classes)
		// Kernelized QP sweep per class: every QP neighbor of a class
		// point is in the same class, so sweeping after the level's
		// quantization sweep is byte-identical to the point-fused order.
		if qp != nil {
			t0 := qpSp.Begin()
			for i := range classes {
				pred.ForwardRegion(q, qp, classes[i].Region, workers, qpWsp)
			}
			qpSp.AddSince(t0)
		}
		// Pass 2: add the L2 projection correction, computed from the
		// quantized details, to the coarse nodal values.
		applyCorrection(data, dims, strides, level, quant, q, +1)
	}

	return core.GatherCoarse(data, dims, levels, quant.CenterSym(), q, qp), sw.lits
}

// decompressCore reverses compressCore, coarse-to-fine. enc is overwritten
// in place with recovered original symbols.
func decompressCore(data []float64, dims []int, eb float64, levels int, radius int32,
	enc []int32, coarse, literals []float64, pred *core.Predictor, workers int, qpSp *obs.Span) error {

	strides := grid.Strides(dims)
	ebl := levelBound(eb, levels)
	quant := quantizer.Linear{EB: ebl, Radius: radius}

	if err := core.ScatterCoarse(data, dims, levels, quant.CenterSym(), enc, coarse, ErrCorrupt); err != nil {
		return err
	}

	// The literal stream was appended fine-to-coarse during compression;
	// levels are decoded coarse-to-fine here, so index literals per level.
	litOffsets, err := literalOffsets(dims, strides, levels, enc, pred, len(literals), workers, qpSp)
	if err != nil {
		return err
	}

	sw := sweep{data: data, sym: enc, lits: literals, quant: quant}
	for level := levels; level >= 1; level-- {
		// Step 1 already happened inside literalOffsets: enc now holds
		// recovered original symbols for every point.
		// Step 2: remove the L2 correction from the coarse nodal values.
		applyCorrection(data, dims, strides, level, quant, enc, -1)
		// Step 3: reconstruct the level's values.
		sw.lit = litOffsets[level-1]
		if !sw.sweepLevel(lattice.Classes(dims, strides, level)) {
			return fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
		}
	}
	return nil
}

// literalOffsets replays the compression-side symbol order (fine-to-coarse
// class walks) to (a) invert QP on the symbol array with the kernelized
// per-class sweeps — identical to the per-point order because all QP
// neighbors of a class point lie in the same class — and (b) compute, per
// level, the starting offset into the literal stream by counting the
// recovered unpredictable markers.
func literalOffsets(dims, strides []int, levels int, enc []int32, pred *core.Predictor,
	nlit, workers int, qpSp *obs.Span) ([]int, error) {

	qpWsp := core.WorkerSpans(qpSp, workers)
	offsets := make([]int, levels)
	lit := 0
	for level := 1; level <= levels; level++ {
		offsets[level-1] = lit
		t0 := qpSp.Begin()
		classes := lattice.Classes(dims, strides, level)
		for i := range classes {
			rg := classes[i].Region
			if pred != nil {
				pred.InverseRegion(enc, rg, workers, qpWsp)
			}
			lit += core.RegionCount(enc, rg, quantizer.Unpredictable)
		}
		qpSp.AddSince(t0)
	}
	if lit != nlit {
		return nil, fmt.Errorf("%w: literal count mismatch: walked %d, stream has %d", ErrCorrupt, lit, nlit)
	}
	return offsets, nil
}
