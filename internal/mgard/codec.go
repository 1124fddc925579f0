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
		// Pass 2: add the L2 projection correction, computed from the
		// quantized details, to the coarse nodal values. It reads the
		// level's original symbols, so it runs before QP transforms them.
		applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, +1)
		// QP sweep per class: every QP neighbor of a class point is in
		// the same class, so sweeping after the level's quantization
		// sweep is byte-identical to the point-fused order.
		for i := range classes {
			cs.ForwardQP(classes[i].Region)
		}
	}
	return cs.GatherCoarse(dims, levels, quant.CenterSym())
}

// decompressCore reverses compressCore, coarse-to-fine.
func decompressCore(cs *core.Sweep, dims []int, quant quantizer.Linear, levels int, coarse []float64) error {
	strides := grid.Strides(dims)
	if err := cs.ScatterCoarse(dims, levels, quant.CenterSym(), coarse); err != nil {
		return err
	}

	// The literal stream was appended fine-to-coarse; levels are decoded
	// coarse-to-fine here, so place each level's literals first.
	starts, err := literalOffsets(cs, dims, strides, levels)
	if err != nil {
		return err
	}

	sw := sweep{cs: cs, data: cs.Data, sym: cs.Sym, quant: quant}
	lits := cs.Lits
	for level := levels; level >= 1; level-- {
		// Step 1 already happened inside literalOffsets: Sym now holds
		// recovered original symbols for every point.
		// Step 2: remove the L2 correction from the coarse nodal values.
		applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, -1)
		// Step 3: reconstruct the level's values from exactly its own
		// literals, lits[starts[level-1]:starts[level]].
		cs.Lits, cs.Lit = lits[:starts[level]], starts[level-1]
		if !sw.sweepLevel(lattice.Classes(dims, strides, level)) {
			return cs.Exhausted()
		}
		if err := cs.Drained(); err != nil {
			return err
		}
	}
	cs.Lits = lits
	return nil
}

// literalOffsets replays the compression-side symbol order (fine-to-coarse
// class walks) to (a) invert QP on the symbol array with the per-class
// sweeps — identical to the per-point order because all QP neighbors of a
// class point lie in the same class — and (b) place each level's literals
// in the stream: starts[l-1] is where level l's begin, starts[levels] the
// stream's end. Only levels ≥ 2 count their recovered unpredictable
// markers: level l starts at len(Lits) − Σ_{l' ≥ l} count(l'), level 1 at
// 0, so level 1's count — most of the field's points — is what is left,
// and its sweep checks it. Counts that exceed the stream fail with
// Exhausted.
func literalOffsets(cs *core.Sweep, dims, strides []int, levels int) ([]int, error) {
	starts := make([]int, levels+1)
	for level := 1; level <= levels; level++ {
		for _, cl := range lattice.Classes(dims, strides, level) {
			cs.InverseQP(cl.Region)
			if level > 1 {
				starts[level-1] += core.RegionCount(cs.Sym, cl.Region, quantizer.Unpredictable)
			}
		}
	}
	starts[levels] = len(cs.Lits)
	for level := levels; level > 1; level-- {
		starts[level-1] = starts[level] - starts[level-1]
	}
	if starts[1] < 0 {
		return nil, cs.Exhausted()
	}
	return starts, nil
}
