package hpez

import (
	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lattice"
)

// compressCore runs the HPEZ pipeline with a resolved plan on sw and
// returns the anchors. Each level is one row-kernel sweep over its
// classes (kernel.go) followed by the QP sweep over the same class
// regions — every QP neighbor of a class point lies in the same class,
// earlier in sweep order, and the forward sweep reads only original
// symbols, so the output is byte-identical to the point-fused order.
func compressCore(cs *core.Sweep, dims []int, pl plan) (anchors []float64) {
	strides := grid.Strides(dims)
	anchors = cs.GatherCoarse(dims, pl.levels, pl.radius)
	sw := newSweep(cs, true, &pl, len(dims))
	for level := pl.levels; level >= 1; level-- {
		classes := lattice.Classes(dims, strides, level)
		sw.sweepLevel(classes, level)
		for i := range classes {
			cs.ForwardQP(classes[i].Region)
		}
	}
	return anchors
}

// decompressCore reverses compressCore: each level first recovers its
// original symbols with the inverse QP sweep per class (the inverse reads
// only same-class symbols, all already recovered by the sweep's own
// order), then reconstructs values with the inverse row kernels, the
// literal stream consumed exactly as the compressor appended it.
func decompressCore(cs *core.Sweep, dims []int, pl plan, anchors []float64) error {
	strides := grid.Strides(dims)
	if err := cs.ScatterCoarse(dims, pl.levels, pl.radius, anchors); err != nil {
		return err
	}
	sw := newSweep(cs, false, &pl, len(dims))
	for level := pl.levels; level >= 1; level-- {
		classes := lattice.Classes(dims, strides, level)
		for i := range classes {
			cs.InverseQP(classes[i].Region)
		}
		if !sw.sweepLevel(classes, level) {
			return cs.Exhausted()
		}
	}
	return cs.Drained()
}
