package qoz

import (
	"scdc/internal/core"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

// specFor adapts a resolved plan to the shared sz3 engine's per-level
// schedule parameters.
func (pl *plan) specFor(level int) sz3.LevelSpec {
	return sz3.LevelSpec{
		Order: pl.orders[level-1],
		Kind:  pl.kinds[level-1],
		Quant: quantizer.Linear{EB: pl.ebs[level-1], Radius: pl.radius},
	}
}

// compressCore runs the interpolation pipeline with a resolved plan on
// sw. It returns the anchor values — the coarse lattice at stride
// 2^levels, stored losslessly.
func compressCore(sw *core.Sweep, dims []int, pl plan) (anchors []float64) {
	anchors = sw.GatherCoarse(dims, pl.levels, pl.radius)
	sz3.CompressSchedule(sw, dims, pl.levels, pl.specFor)
	return anchors
}

// decompressCore reverses compressCore.
func decompressCore(sw *core.Sweep, dims []int, pl plan, anchors []float64) error {
	if err := sw.ScatterCoarse(dims, pl.levels, pl.radius, anchors); err != nil {
		return err
	}
	return sz3.DecompressSchedule(sw, dims, pl.levels, pl.specFor)
}
