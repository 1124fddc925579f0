package qoz

import (
	"scdc/internal/core"
	"scdc/internal/obs"
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

// compressCore runs the interpolation pipeline with a resolved plan on up
// to workers goroutines (the output is identical for any worker count).
// data is overwritten with decompressed values. Returns the anchor values
// — the coarse lattice at stride 2^levels, stored losslessly — and the
// literal stream.
func compressCore(data []float64, dims []int, pl plan, q, qp []int32, pred *core.Predictor, workers int, sp, qpSp *obs.Span) (anchors, literals []float64) {
	anchors = core.GatherCoarse(data, dims, pl.levels, pl.radius, q, qp)
	literals = sz3.CompressSchedule(data, dims, pl.levels, workers, pl.specFor, q, qp, pred, nil, sp, qpSp)
	return anchors, literals
}

// decompressCore reverses compressCore. enc is overwritten in place with
// the recovered original symbols.
func decompressCore(data []float64, dims []int, pl plan, enc []int32, anchors, literals []float64, pred *core.Predictor, workers int, sp, qpSp *obs.Span) error {
	if err := core.ScatterCoarse(data, dims, pl.levels, pl.radius, enc, anchors, ErrCorrupt); err != nil {
		return err
	}
	return sz3.DecompressSchedule(data, dims, pl.levels, workers, pl.specFor, enc, literals, 0, pred, ErrCorrupt, sp, qpSp)
}
