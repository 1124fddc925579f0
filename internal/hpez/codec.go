package hpez

import (
	"fmt"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lattice"
	"scdc/internal/obs"
)

// compressCore runs the HPEZ pipeline with a resolved plan; data is
// overwritten with decompressed values. Each level is one row-kernel
// sweep over its classes (kernel.go) followed by the kernelized QP sweep
// over the same class regions — every QP neighbor of a class point lies
// in the same class, earlier in sweep order, and the forward sweep reads
// only original symbols, so the output is byte-identical to the
// point-fused order. qpSp, when non-nil, accumulates the QP share of the
// interp wall time.
func compressCore(data []float64, dims []int, pl plan, q, qp []int32,
	pred *core.Predictor, workers int, qpSp *obs.Span) (anchors, literals []float64) {

	strides := grid.Strides(dims)
	qpWsp := core.WorkerSpans(qpSp, workers)

	anchors = core.GatherCoarse(data, dims, pl.levels, pl.radius, q, qp)

	sw := newSweep(data, q, nil, true, &pl, len(dims))
	for level := pl.levels; level >= 1; level-- {
		classes := lattice.Classes(dims, strides, level)
		sw.sweepLevel(classes, level)
		if qp != nil {
			t0 := qpSp.Begin()
			for i := range classes {
				pred.ForwardRegion(q, qp, classes[i].Region, workers, qpWsp)
			}
			qpSp.AddSince(t0)
		}
	}
	return anchors, sw.lits
}

// decompressCore reverses compressCore: each level first recovers its
// original symbols with the kernelized inverse QP sweep per class (the
// inverse reads only same-class symbols, all already recovered by the
// sweep's own order), then reconstructs values with the inverse row
// kernels, the literal stream consumed exactly as the compressor appended
// it.
func decompressCore(data []float64, dims []int, pl plan, enc []int32, anchors, literals []float64,
	pred *core.Predictor, workers int, qpSp *obs.Span) error {

	strides := grid.Strides(dims)

	if err := core.ScatterCoarse(data, dims, pl.levels, pl.radius, enc, anchors, ErrCorrupt); err != nil {
		return err
	}

	sw := newSweep(data, enc, literals, false, &pl, len(dims))
	qpWsp := core.WorkerSpans(qpSp, workers)
	for level := pl.levels; level >= 1; level-- {
		classes := lattice.Classes(dims, strides, level)
		if pred != nil {
			t0 := qpSp.Begin()
			for i := range classes {
				pred.InverseRegion(enc, classes[i].Region, workers, qpWsp)
			}
			qpSp.AddSince(t0)
		}
		if !sw.sweepLevel(classes, level) {
			return fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
		}
	}
	if sw.lit != len(literals) {
		return fmt.Errorf("%w: %d unused literals", ErrCorrupt, len(literals)-sw.lit)
	}
	return nil
}
