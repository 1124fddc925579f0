package sz3

import (
	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
)

// compressInterp runs the interpolation pipeline over w.Data (which it
// overwrites with decompressed values, as Algorithm 1 line 6 requires for
// future predictions). It fills w.Q with stored symbols, fills w.QP with
// QP-transformed symbols when QP is on, and returns the literal stream of
// unpredictable values. Workers > 1 splits each interpolation pass across
// goroutines; the output is identical to the sequential sweep.
func compressInterp(w core.Work, dims []int, opts Options, quant quantizer.Linear, levels int) []float64 {
	var literals []float64

	// Origin point: predicted as 0 (first point of the top level).
	sym, dec, ok := quant.Quantize(w.Data[0], 0)
	w.Q[0] = sym
	if !ok {
		literals = append(literals, w.Data[0])
	}
	w.Data[0] = dec
	if w.QP != nil {
		w.QP[0] = sym
	}

	spec := LevelSpec{Order: opts.DirOrder, Kind: opts.Interp, Quant: quant}
	return CompressSchedule(w.Data, dims, levels, opts.Workers,
		func(int) LevelSpec { return spec }, w.Q, w.QP, w.Pred, literals, opts.Obs, w.QPSpan)
}

// decompressInterp reconstructs data from the (possibly QP-transformed)
// symbol stream r.Indices, consuming r.Literals for unpredictable points.
// The symbols are overwritten in place with the recovered original ones so
// that QP can read previously recovered neighbors.
func decompressInterp(data []float64, dims []int, kind interp.Kind, dirOrder []int,
	quant quantizer.Linear, r *core.Reader, workers int, sp *obs.Span) error {

	enc, lit := r.Indices, 0

	// Origin point: enc[0] is its own symbol (no compensation applies).
	if enc[0] == quantizer.Unpredictable {
		if len(r.Literals) == 0 {
			return errCorruptf("literal stream exhausted")
		}
		data[0] = r.Literals[0]
		lit = 1
	} else {
		data[0] = quant.Recover(0, enc[0])
	}

	spec := LevelSpec{Order: dirOrder, Kind: kind, Quant: quant}
	return DecompressSchedule(data, dims, Levels(dims), workers,
		func(int) LevelSpec { return spec }, enc, r.Literals, lit, r.Pred, ErrCorrupt, sp, r.QPSpan)
}
