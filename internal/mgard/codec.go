package mgard

import (
	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
)

// compressCore runs the MGARD decomposition fine-to-coarse on cs. The
// field is overwritten: fine positions hold decompressed values, coarse
// lattice positions hold the corrected coarse approximation, which is
// returned as the raw coarse stream.
func compressCore(cs *core.Sweep, dims []int, quant quantizer.Linear, levels int) (coarse []float64) {
	strides := grid.Strides(dims)
	sw := sweep{cs: cs, data: cs.Data, sym: cs.Sym, fwd: true, quant: quant}
	for level := 1; level <= levels; level++ {
		// Pass 1: quantize detail coefficients against the multilinear
		// prediction from the (uncorrected) coarse lattice (kernel.go).
		classes := lattice.Classes(dims, strides, level)
		sw.sweepLevel(classes)
		// QP sweep per class: every QP neighbor of a class point is in
		// the same class, so sweeping after the level's quantization
		// sweep is byte-identical to the point-fused order.
		for i := range classes {
			cs.ForwardQP(classes[i].Region)
		}
		// Pass 2: add the L2 projection correction, computed from the
		// quantized details, to the coarse nodal values.
		applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, +1)
	}
	return cs.GatherCoarse(dims, levels, quant.CenterSym())
}

// decompressCore reverses compressCore, coarse-to-fine.
func decompressCore(cs *core.Sweep, dims []int, quant quantizer.Linear, levels int, coarse []float64) error {
	strides := grid.Strides(dims)
	if err := cs.ScatterCoarse(dims, levels, quant.CenterSym(), coarse); err != nil {
		return err
	}

	// The literal stream was appended fine-to-coarse during compression;
	// levels are decoded coarse-to-fine here, so index literals per level.
	litOffsets, err := literalOffsets(cs, dims, strides, levels)
	if err != nil {
		return err
	}

	sw := sweep{cs: cs, data: cs.Data, sym: cs.Sym, quant: quant}
	for level := levels; level >= 1; level-- {
		// Step 1 already happened inside literalOffsets: Sym now holds
		// recovered original symbols for every point.
		// Step 2: remove the L2 correction from the coarse nodal values.
		applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, -1)
		// Step 3: reconstruct the level's values.
		cs.Lit = litOffsets[level-1]
		if !sw.sweepLevel(lattice.Classes(dims, strides, level)) {
			return cs.Exhausted()
		}
	}
	return nil
}

// literalOffsets replays the compression-side symbol order (fine-to-coarse
// class walks) to (a) invert QP on the symbol array with the per-class
// sweeps — identical to the per-point order because all QP neighbors of a
// class point lie in the same class — and (b) compute, per level, the
// starting offset into the literal stream by counting the recovered
// unpredictable markers, which must add up to the stream's length.
func literalOffsets(cs *core.Sweep, dims, strides []int, levels int) ([]int, error) {
	offsets := make([]int, levels)
	for level := 1; level <= levels; level++ {
		offsets[level-1] = cs.Lit
		for _, cl := range lattice.Classes(dims, strides, level) {
			cs.InverseQP(cl.Region)
			cs.Lit += core.RegionCount(cs.Sym, cl.Region, quantizer.Unpredictable)
		}
	}
	return offsets, cs.Drained()
}
