package sz3

import (
	"scdc/internal/core"
	"scdc/internal/quantizer"
)

// lorenzo is the 3D Lorenzo prediction (Ibarria et al. 2003) from the
// seven processed corners of a point's unit cube: a, b and c are the
// previous points along the plane, row and run axes, ab, ac and bc the
// corners one step back along two of those axes, and abc the corner one
// step back along all three. A neighbor outside the field reads as zero,
// so a 2D field's prediction is this sum with the plane terms zero. The
// prediction is exact on any field without a term that couples all three
// axes. The term order is part of the stream format: the compressor, the
// decompressor and the mode estimate all add the terms in this order.
//
//scdc:inline
func lorenzo(a, b, c, ab, ac, bc, abc float64) float64 {
	return a + b + c - ab - ac - bc + abc
}

// lorenzoRegion maps dims onto the scan's geometry: contiguous row-major
// axes with Left/Top/Back on the three fastest strides, so left/top are
// the previous points along the two fastest axes and back is the previous
// plane. A fourth, slowest dim stacks independent 3D blocks on axis 0,
// which carries no neighbor (the paper treats 4D RTM data as independent
// 3D slices), and missing dims become extent-1 axes. The QP sweeps run
// over the same region, so the scan order is also their order. This is
// the "generalized design for compressors besides interpolation-based
// ones" the paper lists as future work (Section VII).
func lorenzoRegion(dims []int) core.Region {
	ext := [4]int{1, 1, 1, 1}
	copy(ext[4-len(dims):], dims)
	return core.Region{
		Ext:   ext,
		Strd:  [4]int{ext[1] * ext[2] * ext[3], ext[2] * ext[3], ext[3], 1},
		Left:  3,
		Top:   2,
		Back:  1,
		Level: 1,
	}
}

// compressLorenzo runs the 3D Lorenzo fallback pipeline on sw: scan in
// natural order, predict from the seven processed neighbors (decompressed
// values), quantize, then transform the symbols with QP when sw runs it.
func compressLorenzo(sw *core.Sweep, dims []int, quant quantizer.Linear) {
	rg := lorenzoRegion(dims)
	lorenzoScan{sw: sw, quant: quant, fwd: true}.run(rg)
	sw.ForwardQP(rg)
}

// decompressLorenzo reverses compressLorenzo: the inverse QP sweep
// recovers the symbols in place, then the scan reconstructs the field.
func decompressLorenzo(sw *core.Sweep, dims []int, quant quantizer.Linear) error {
	rg := lorenzoRegion(dims)
	sw.InverseQP(rg)
	if !(lorenzoScan{sw: sw, quant: quant}).run(rg) {
		return sw.Exhausted()
	}
	return sw.Drained()
}

// lorenzoScan is one direction's Lorenzo scan over a core.Sweep's field
// and symbols: each point is predicted from the current contents of the
// field, which hold the decompressed values of every point before it, and
// then quantized (forward) or reconstructed (inverse).
type lorenzoScan struct {
	sw    *core.Sweep
	quant quantizer.Linear
	fwd   bool
}

// run scans rg's axis-3 runs in row-major order. Each run decides once
// whether the previous row and plane exist, and reads a run of zeros in
// place of one that does not. It returns false when the inverse direction
// runs out of literals.
func (s lorenzoScan) run(rg core.Region) bool {
	n, row, plane := rg.Ext[3], rg.Strd[2], rg.Strd[1]
	zero := make([]float64, n)
	data := s.sw.Data
	cur := core.RowCursor{Base: rg.Base}
	for r, rows := 0, rg.Rows(); r < rows; r++ {
		o := cur.Base
		a, b, ab := zero, zero, zero
		if cur.P2 > 0 {
			b = data[o-row : o-row+n]
		}
		if cur.P1 > 0 {
			a = data[o-plane : o-plane+n]
			if cur.P2 > 0 {
				ab = data[o-plane-row : o-plane-row+n]
			}
		}
		if !s.row(o, a, b, ab) {
			return false
		}
		rg.NextRow(&cur)
	}
	return true
}

// row scans the run starting at flat index o. a, b and ab are the same
// run in the previous plane, the previous row and the previous plane's
// previous row; the neighbors one step back along the run are carried
// from the last point and are zero at the run's head.
//
//scdc:noalloc
func (s lorenzoScan) row(o int, a, b, ab []float64) bool {
	n := len(a)
	data, sym := s.sw.Data[o:o+n], s.sw.Sym[o:o+n]
	b, ab = b[:n], ab[:n]
	var c, ac, bc, abc float64
	for k := range data {
		p := lorenzo(a[k], b[k], c, ab[k], ac, bc, abc)
		switch {
		case s.fwd:
			d := data[k]
			q, dec, ok := s.quant.Quantize(d, p)
			sym[k] = q
			if !ok {
				s.sw.Lits = append(s.sw.Lits, d)
			}
			data[k] = dec
		case sym[k] != quantizer.Unpredictable:
			data[k] = s.quant.Recover(p, sym[k])
		default:
			v, ok := s.sw.Literal()
			if !ok {
				return false
			}
			data[k] = v
		}
		c, ac, bc, abc = data[k], a[k], b[k], ab[k]
	}
	return true
}
