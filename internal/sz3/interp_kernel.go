package sz3

import (
	"math"

	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// This file is the kernelized interpolation engine (DESIGN.md §6.4). The
// reference path (compressPassRef/decompressPassRef, the test-only oracle
// in walker_oracle_test.go) pays, per point, a Point struct build, a
// closure-based interp.Line dispatch re-deriving the boundary case from
// scratch, and a quantizer.Quantize call. The kernels below hoist all of that out of the loop.
//
// The key observation is that the boundary structure of a pass is
// pass-constant: every line shares (s, n, dstr), so which interpolation
// stencil applies at in-line point k is the same for every line. With
// kR = the last point owning a right neighbor (t+s < n), the layout is
//
//	k = 0            head: no left-third sample (t = s < 3s)
//	k in [1, kR-1]   interior: full four-point stencil available
//	k = kR  (>= 1)   right neighbor but no right-third sample
//	k = p-1 (> kR)   at most one trailing point with no right neighbor
//
// because the right-third threshold always sits exactly one point below
// kR (the t+s < n <= t+3s window spans one 2s step) and the no-right
// window spans at most the final point. A pass sweep therefore runs, per
// (interp kind), one specialized segment per boundary case with the hot
// interior loop free of any boundary test — and the quantize→reconstruct
// step of quantizer.Linear fused into the same loop, so predict,
// quantize and writeback are one traversal of the line instead of
// dispatch-per-point.
//
// Line enumeration is the row enumeration of the pass's core.Region
// (pa.qpRegion): region rows are exactly the pass's lines in reference
// order, and Region.RowBase(li) is the line's first predicted point.
// The forward sweep reads only lattice samples established by previous
// passes and writes only its own line's q/data slots, so lines split
// freely across workers (compressPass) with byte-identical output at
// any worker count; the reference visit order is replayed within each
// line by construction.
//
// Bit-identity with the reference walker is pinned by
// TestInterpKernelsMatchWalker and FuzzInterpKernelDifferential.

// quantParams holds the pass-constant scalars of the fused quantize
// step, hoisted out of the per-point loops.
type quantParams struct {
	eb  float64 // error bound
	eb2 float64 // 2*eb, the quantization bin width
	rf  float64 // float64(radius), the pre-round range gate
	r   int32   // radius
}

// lineKern is the resolved sweep geometry of one pass: flat strides
// along the pass direction plus the boundary layout shared by every
// line of the pass.
type lineKern struct {
	ss  int // flat offset of one stride s along the pass direction
	ss2 int // flat offset of 2s: the in-line distance between points
	p   int // predicted points per line
	kR  int // last point index with a right neighbor (t+s < n); -1 if none
	prm quantParams
	qu  quantizer.Linear
}

// makeLineKern resolves the kernel geometry of one pass. The kR formula
// counts the odd multiples t of s with t+s < n: t = s(2k+1), so
// k <= (n-1)/(2s) - 1; it never exceeds p-1 and p >= 2 forces kR >= 0
// (a second predicted point t = 3s implies t' = s has 2s < n).
//
//scdc:inline
//scdc:noalloc
func makeLineKern(pa *pass, quant quantizer.Linear) lineKern {
	ss := pa.s * pa.dstr
	return lineKern{
		ss:  ss,
		ss2: 2 * ss,
		p:   pa.pointsPerLine,
		kR:  (pa.n-1)/(2*pa.s) - 1,
		prm: quantParams{
			eb:  quant.EB,
			eb2: 2 * quant.EB,
			rf:  float64(quant.Radius),
			r:   quant.Radius,
		},
		qu: quant,
	}
}

// fwdQuant quantizes data[o] against pred, storing the symbol in q[o]
// and the reconstruction in data[o]. It hand-mirrors
// quantizer.Linear.Quantize — the same operations in the same order, so
// results are bit-identical (TestFusedQuantMatchesQuantizer pins this).
// math.Round alone costs 57 of the 80-point inlining budget, so neither
// Quantize nor this helper can ever inline; the forward kernels therefore
// expand this exact body at each predict site and fwdQuant stands as the
// readable specification the expansion is diffed against. Returns false
// for an unpredictable point: q[o] holds the marker, data[o] is left as
// the original value and the caller appends it to the literal stream.
//
//scdc:noalloc
func fwdQuant(data []float64, q []int32, o int, pred float64, pm quantParams) bool {
	d := data[o]
	qf := (d - pred) / pm.eb2
	if qf < pm.rf && qf > -pm.rf { // NaN fails both, like the IsNaN gate
		qq := int32(math.Round(qf))
		if qq < pm.r && qq > -pm.r {
			dec := pred + 2*float64(qq)*pm.eb
			if math.Abs(dec-d) <= pm.eb { // rounding guard of Quantize
				q[o] = qq + pm.r
				data[o] = dec
				return true
			}
		}
	}
	q[o] = quantizer.Unpredictable
	return false
}

// fwdLinear sweeps one line with the fused linear kernel: two-point
// midpoints for every point owning a right neighbor, then at most one
// trailing extrapolated (or copied, for a single-point line) point.
// Each predict site expands the fwdQuant body inline — one call-free
// traversal per line.
//
//scdc:noalloc
func (lk *lineKern) fwdLinear(data []float64, q []int32, p0 int, lits []float64) []float64 {
	ss, ss2, pm := lk.ss, lk.ss2, lk.prm
	o := p0
	if lk.kR >= 0 {
		// The stencil inputs sit at even multiples of s — lattice points
		// this pass never writes — and consecutive predicted points share
		// one of them, so it rides in a register instead of being reloaded
		// (a strided, often cache-missing load on slow-axis passes).
		am1 := data[o-ss]
		for k := 0; k <= lk.kR; k++ {
			ap1 := data[o+ss]
			pred := interp.Mid2(am1, ap1)
			am1 = ap1
			d := data[o]
			qf := (d - pred) / pm.eb2
			if qf < pm.rf && qf > -pm.rf {
				if qq := int32(math.Round(qf)); qq < pm.r && qq > -pm.r {
					dec := pred + 2*float64(qq)*pm.eb
					if math.Abs(dec-d) <= pm.eb {
						q[o] = qq + pm.r
						data[o] = dec
						o += ss2
						continue
					}
				}
			}
			q[o] = quantizer.Unpredictable
			lits = append(lits, d)
			o += ss2
		}
	}
	if lk.p-1 > lk.kR {
		var pred float64
		if lk.p >= 2 {
			pred = interp.ExtrapLeft2(data[o-3*ss], data[o-ss])
		} else {
			pred = data[o-ss]
		}
		if !fwdQuant(data, q, o, pred, pm) {
			lits = append(lits, data[o])
		}
	}
	return lits
}

// fwdCubic sweeps one line with the fused cubic kernel: quadratic head,
// four-point interior (the hot loop, with the fwdQuant body expanded
// inline), quadratic right-edge point and at most one trailing
// extrapolated point.
//
//scdc:noalloc
func (lk *lineKern) fwdCubic(data []float64, q []int32, p0 int, lits []float64) []float64 {
	ss, ss2, pm := lk.ss, lk.ss2, lk.prm
	o := p0
	var pred float64
	switch {
	case lk.kR >= 1: // right-third sample exists at k=0
		pred = interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss])
	case lk.kR == 0:
		pred = interp.Mid2(data[o-ss], data[o+ss])
	default:
		pred = data[o-ss]
	}
	if !fwdQuant(data, q, o, pred, pm) {
		lits = append(lits, data[o])
	}
	o += ss2
	if lk.kR > 1 {
		// Consecutive interior points share three of the four stencil
		// samples (all even-multiple lattice values this pass never
		// writes), so they rotate through registers instead of being
		// reloaded via strided, often cache-missing accesses.
		am3, am1, ap1 := data[o-3*ss], data[o-ss], data[o+ss]
		for k := 1; k < lk.kR; k++ {
			ap3 := data[o+3*ss]
			pred := interp.Cubic4(am3, am1, ap1, ap3)
			am3, am1, ap1 = am1, ap1, ap3
			d := data[o]
			qf := (d - pred) / pm.eb2
			if qf < pm.rf && qf > -pm.rf {
				if qq := int32(math.Round(qf)); qq < pm.r && qq > -pm.r {
					dec := pred + 2*float64(qq)*pm.eb
					if math.Abs(dec-d) <= pm.eb {
						q[o] = qq + pm.r
						data[o] = dec
						o += ss2
						continue
					}
				}
			}
			q[o] = quantizer.Unpredictable
			lits = append(lits, d)
			o += ss2
		}
	}
	if lk.kR >= 1 {
		if !fwdQuant(data, q, o, interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss]), pm) {
			lits = append(lits, data[o])
		}
		o += ss2
	}
	if lk.p-1 > lk.kR && lk.p >= 2 {
		if !fwdQuant(data, q, o, interp.ExtrapLeft2(data[o-3*ss], data[o-ss]), pm) {
			lits = append(lits, data[o])
		}
	}
	return lits
}

// fwdLines runs the fused forward kernels over lines [lo, hi) of a pass
// in reference line order. rg must be the pass's region (pa.qpRegion);
// the interp-kind dispatch happens once per call, never per point.
//
//scdc:hot
//scdc:noalloc
func fwdLines(data []float64, q []int32, rg core.Region, lk *lineKern, kind interp.Kind, lo, hi int, lits []float64) []float64 {
	if kind == interp.Cubic {
		for li := lo; li < hi; li++ {
			lits = lk.fwdCubic(data, q, rg.RowBase(li), lits)
		}
		return lits
	}
	for li := lo; li < hi; li++ {
		lits = lk.fwdLinear(data, q, rg.RowBase(li), lits)
	}
	return lits
}

// invLinear reconstructs one line from recovered symbols with the fused
// linear kernel, consuming literals from index lit for unpredictable
// points. ok is false when the literal stream is exhausted.
//
//scdc:noalloc
func (lk *lineKern) invLinear(data []float64, enc []int32, p0 int, literals []float64, lit int) (int, bool) {
	ss, ss2, qu := lk.ss, lk.ss2, lk.qu
	o := p0
	for k := 0; k <= lk.kR; k++ {
		if sym := enc[o]; sym != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Mid2(data[o-ss], data[o+ss]), sym)
		} else {
			if lit >= len(literals) {
				return lit, false
			}
			data[o] = literals[lit]
			lit++
		}
		o += ss2
	}
	if lk.p-1 > lk.kR {
		if sym := enc[o]; sym != quantizer.Unpredictable {
			var pred float64
			if lk.p >= 2 {
				pred = interp.ExtrapLeft2(data[o-3*ss], data[o-ss])
			} else {
				pred = data[o-ss]
			}
			data[o] = qu.Recover(pred, sym)
		} else {
			if lit >= len(literals) {
				return lit, false
			}
			data[o] = literals[lit]
			lit++
		}
	}
	return lit, true
}

// invCubic is the cubic counterpart of invLinear, with the same segment
// layout as fwdCubic.
//
//scdc:noalloc
func (lk *lineKern) invCubic(data []float64, enc []int32, p0 int, literals []float64, lit int) (int, bool) {
	ss, ss2, qu := lk.ss, lk.ss2, lk.qu
	o := p0
	if sym := enc[o]; sym != quantizer.Unpredictable {
		var pred float64
		switch {
		case lk.kR >= 1:
			pred = interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss])
		case lk.kR == 0:
			pred = interp.Mid2(data[o-ss], data[o+ss])
		default:
			pred = data[o-ss]
		}
		data[o] = qu.Recover(pred, sym)
	} else {
		if lit >= len(literals) {
			return lit, false
		}
		data[o] = literals[lit]
		lit++
	}
	o += ss2
	for k := 1; k < lk.kR; k++ {
		if sym := enc[o]; sym != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss]), sym)
		} else {
			if lit >= len(literals) {
				return lit, false
			}
			data[o] = literals[lit]
			lit++
		}
		o += ss2
	}
	if lk.kR >= 1 {
		if sym := enc[o]; sym != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss]), sym)
		} else {
			if lit >= len(literals) {
				return lit, false
			}
			data[o] = literals[lit]
			lit++
		}
		o += ss2
	}
	if lk.p-1 > lk.kR && lk.p >= 2 {
		if sym := enc[o]; sym != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.ExtrapLeft2(data[o-3*ss], data[o-ss]), sym)
		} else {
			if lit >= len(literals) {
				return lit, false
			}
			data[o] = literals[lit]
			lit++
		}
	}
	return lit, true
}

// invLines runs the fused inverse kernels over lines [lo, hi) of a pass
// in reference line order, consuming literals from index lit. ok is
// false when the literal stream is exhausted.
//
//scdc:hot
//scdc:noalloc
func invLines(data []float64, enc []int32, rg core.Region, lk *lineKern, kind interp.Kind, lo, hi int, literals []float64, lit int) (int, bool) {
	ok := true
	if kind == interp.Cubic {
		for li := lo; li < hi && ok; li++ {
			lit, ok = lk.invCubic(data, enc, rg.RowBase(li), literals, lit)
		}
		return lit, ok
	}
	for li := lo; li < hi && ok; li++ {
		lit, ok = lk.invLinear(data, enc, rg.RowBase(li), literals, lit)
	}
	return lit, ok
}
