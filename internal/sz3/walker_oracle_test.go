package sz3

import (
	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// This file is the reference walker: the seed-era per-point schedule
// walk the kernelized engine (interp_kernel.go) and the ordinal sampler
// (SampleLevel) replaced. It ships in no binary; the differential tests
// and fuzz targets of this package use it as their oracle.

// line returns the geometry of line li (row-major over the orthogonal
// lattice): the flat index of the line's origin and whether the Left/Top
// QP neighbors exist for its points.
func (pa *pass) line(li int) (base int, hasLeft, hasTop bool) {
	var oc [3]int
	rem := li
	oc[2] = rem % pa.cnt[2]
	rem /= pa.cnt[2]
	oc[1] = rem % pa.cnt[1]
	oc[0] = rem / pa.cnt[1]
	for k := 0; k < pa.no; k++ {
		base += oc[k] * pa.stride[k]
	}
	hasLeft = pa.leftK >= 0 && oc[pa.leftK] > 0
	hasTop = pa.topK >= 0 && oc[pa.topK] > 0
	return base, hasLeft, hasTop
}

// Point describes one data point visited by the multilevel interpolation
// schedule. The same walker drives compression and decompression, which
// guarantees both sides visit points in an identical order with identical
// prediction geometry.
type Point struct {
	Idx      int // flat index of the point
	Dir      int // interpolation axis of the current pass
	T        int // position along Dir (element units), an odd multiple of S
	S        int // level stride 2^(level-1)
	N        int // extent along Dir
	LineBase int // flat index of the line's origin (position 0 along Dir)
	LineStrd int // flat stride along Dir
	Level    int // 1-based level; level 1 is the final stride-1 level
	NB       core.Neighborhood
}

// forEachPoint walks the multilevel interpolation schedule with a single
// direction order for every level.
func forEachPoint(dims, strides, dirOrder []int, levels int, fn func(pt *Point)) {
	WalkSchedule(dims, strides, levels, func(int) []int { return dirOrder }, fn)
}

// WalkSchedule walks the multilevel interpolation schedule over a field
// with the given dims and strides, invoking fn for every predicted point.
// orderFor supplies the direction order for each level, which lets QoZ
// tune the order per level. It supports 1..4 dimensions.
//
// Schedule (paper Section IV-A): for level = L..1 with stride s=2^(level-1),
// the known lattice holds multiples of 2s in every dim. Passes run in
// the level's direction order; the pass along dir predicts points whose
// Dir-coordinate is an odd multiple of s, whose already-processed axes sit
// at multiples of s, and whose not-yet-processed axes sit at multiples of
// 2s. This reproduces the stride pattern of Figure 2 (2x2, 1x2, 1x1
// in-plane strides).
func WalkSchedule(dims, strides []int, levels int, orderFor func(level int) []int, fn func(pt *Point)) {
	for level := levels; level >= 1; level-- {
		WalkScheduleLevel(dims, strides, level, orderFor(level), fn)
	}
}

// WalkScheduleLevel walks the passes of a single level with the given
// direction order. Used by the QoZ per-level tuner to sample one level's
// residuals in isolation.
func WalkScheduleLevel(dims, strides []int, level int, order []int, fn func(pt *Point)) {
	forEachPass(dims, strides, level, order, func(pa *pass) {
		var pt Point
		for li := 0; li < pa.numLines; li++ {
			base, hasLeft, hasTop := pa.line(li)
			walkLinePoints(pa, base, hasLeft, hasTop, &pt, fn)
		}
	})
}

// compressPassRef is the golden reference forward pass: the seed-era
// per-point walk with closure-based interp.Line dispatch and the
// unfused quantizer.Quantize call. The kernelized compressPass is pinned
// against it by TestInterpKernelsMatchWalker and
// FuzzInterpKernelDifferential; it is not used on hot paths.
func compressPassRef(data []float64, q []int32, pa *pass,
	kind interp.Kind, quant quantizer.Linear, lits []float64) []float64 {

	var pt Point
	for li := 0; li < pa.numLines; li++ {
		base, hasLeft, hasTop := pa.line(li)
		walkLinePoints(pa, base, hasLeft, hasTop, &pt, func(pt *Point) {
			at := func(t int) float64 { return data[pt.LineBase+t*pt.LineStrd] }
			p := interp.Line(at, pt.N, pt.T, pt.S, kind)
			sym, dec, ok := quant.Quantize(data[pt.Idx], p)
			q[pt.Idx] = sym
			if !ok {
				lits = append(lits, data[pt.Idx])
			}
			data[pt.Idx] = dec
		})
	}
	return lits
}

// decompressPassRef is the golden reference inverse pass mirroring
// compressPassRef. ok is false when the literal stream is exhausted.
func decompressPassRef(data []float64, enc []int32, pa *pass,
	kind interp.Kind, quant quantizer.Linear, literals []float64, lit int) (int, bool) {

	ok := true
	var pt Point
	for li := 0; li < pa.numLines && ok; li++ {
		base, hasLeft, hasTop := pa.line(li)
		walkLinePoints(pa, base, hasLeft, hasTop, &pt, func(pt *Point) {
			if !ok {
				return
			}
			if sym := enc[pt.Idx]; sym != quantizer.Unpredictable {
				at := func(t int) float64 { return data[pt.LineBase+t*pt.LineStrd] }
				data[pt.Idx] = quant.Recover(interp.Line(at, pt.N, pt.T, pt.S, kind), sym)
				return
			}
			if lit >= len(literals) {
				ok = false
				return
			}
			data[pt.Idx] = literals[lit]
			lit++
		})
	}
	return lit, ok
}

// walkLinePoints invokes fn for every predicted point of one line, filling
// the full Point including the QP neighborhood.
func walkLinePoints(pa *pass, base int, hasLeft, hasTop bool, pt *Point, fn func(pt *Point)) {
	s, n, dstr := pa.s, pa.n, pa.dstr
	// Flat offsets to the Left, Top and Back (2s along dir) QP neighbors.
	var leftOff, topOff int
	if pa.leftK >= 0 {
		leftOff = pa.stride[pa.leftK]
	}
	if pa.topK >= 0 {
		topOff = pa.stride[pa.topK]
	}
	backOff := 2 * s * dstr
	for t := s; t < n; t += 2 * s {
		idx := base + t*dstr
		nb := core.Neighborhood{
			Level: pa.level,
			Left:  -1, Top: -1, TopLeft: -1,
			Back: -1, BackLeft: -1, BackTop: -1, BackTopLeft: -1,
		}
		if hasLeft {
			nb.Left = idx - leftOff
		}
		if hasTop {
			nb.Top = idx - topOff
		}
		if hasLeft && hasTop {
			nb.TopLeft = idx - leftOff - topOff
		}
		if t >= 3*s {
			nb.Back = idx - backOff
			if hasLeft {
				nb.BackLeft = nb.Back - leftOff
			}
			if hasTop {
				nb.BackTop = nb.Back - topOff
			}
			if hasLeft && hasTop {
				nb.BackTopLeft = nb.Back - leftOff - topOff
			}
		}
		pt.Idx = idx
		pt.Dir = pa.dir
		pt.T = t
		pt.S = s
		pt.N = n
		pt.LineBase = base
		pt.LineStrd = dstr
		pt.Level = pa.level
		pt.NB = nb
		fn(pt)
	}
}
