package sz3

import (
	"scdc/internal/core"
	"scdc/internal/quantizer"
)

// compressInterp runs the interpolation pipeline on sw under one spec for
// every level: the origin point, predicted as 0 (it is the first point of
// the top level), then the schedule.
func compressInterp(sw *core.Sweep, dims []int, levels int, spec LevelSpec) {
	sym, dec, ok := spec.Quant.Quantize(sw.Data[0], 0)
	if !ok {
		sw.Lits = append(sw.Lits, sw.Data[0])
	}
	sw.Data[0] = dec
	sw.Stamp(0, sym)
	CompressSchedule(sw, dims, levels, func(int) LevelSpec { return spec })
}

// decompressInterp reverses compressInterp. The origin's symbol is its
// own (no compensation applies).
func decompressInterp(sw *core.Sweep, dims []int, spec LevelSpec) error {
	if sym := sw.Sym[0]; sym != quantizer.Unpredictable {
		sw.Data[0] = spec.Quant.Recover(0, sym)
	} else if v, ok := sw.Literal(); ok {
		sw.Data[0] = v
	} else {
		return sw.Exhausted()
	}
	return DecompressSchedule(sw, dims, Levels(dims), func(int) LevelSpec { return spec })
}
