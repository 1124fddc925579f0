package core

// This file is the kernelized QP engine. QP is one reversible transform
// (paper §V-A, Algorithm 2): both sides compute the same compensation c
// from the same already-known neighbors, compression stores Q - c and
// decompression Q' + c. So there is one run kernel per (Mode, Cond) pair,
// storing dst[i] = src[i] + sgn*c, and one region sweep that runs it in
// either direction:
//
//   - forward (ForwardRegion): src = q, dst = qp, sgn = -1. Neighbors are
//     read from the original symbols and every point writes only its own
//     slot of the second array.
//   - inverse (InverseRegion): src and dst are the same slice, sgn = +1.
//     A read of src[i-off] then sees the symbol an earlier step of the
//     same sweep recovered, which is the in-place order Algorithm 2 needs.
//
// Forward with src and dst the same slice is not a supported call: it
// would predict from transformed symbols and the stream would not decode.
//
// The reference path (Predictor.Compensate) pays, per point, a
// Neighborhood struct build, a closure-based bounds probe and a Mode/Cond
// switch. The kernels hoist all of that out of the loop: neighbor
// positions are precomputed flat offsets and the Radius centering is
// folded into the Lorenzo arithmetic (e.g. 2D: c = a + b - ab - R instead
// of three centered() calls). Boundary handling moves out of the loop
// too: a kernel run only ever covers points whose needed neighbors all
// exist, and regionSweep.rows is the one place that decides which points
// those are. Both directions visit a region in one sequential order, the
// same on both sides (DESIGN.md §6.1).

// runKernel is one run of cnt points starting at flat index i0 with
// stride step: dst[i] = src[i] + sgn*c, with c computed from src at the
// neighbor flat offsets offL/offT/offB (only the ones the mode needs are
// read). sgn is -1 on compression and +1 on decompression, where src and
// dst are the same slice; dst is never shorter than src, and each kernel
// opens with dst = dst[:len(src)] so that the store needs no bounds check
// of its own. Returns the number of points with nonzero compensation.
type runKernel func(src, dst []int32, i0, step, cnt, offL, offT, offB int, R, U, sgn int32) int

// kernelOps bundles the run kernel for one (Mode, Cond) pair with the
// neighbor axes the mode dereferences.
type kernelOps struct {
	needL, needT, needB bool
	run                 runKernel
}

// kernelFor selects the kernel for a configuration. The Mode/Cond
// dispatch happens exactly once per region sweep, never per point.
// ModeOff yields zero ops. The 1D kernels read their single neighbor
// from the first offset slot, so Mode1DLeft uses them as they are and
// the other two 1D modes move their offset there.
func kernelFor(mode Mode, cond Cond) kernelOps {
	switch mode {
	case Mode1DBack:
		k := kernel1D(cond)
		return kernelOps{needB: true,
			run: func(src, dst []int32, i0, step, cnt, _, _, offB int, R, U, sgn int32) int {
				return k(src, dst, i0, step, cnt, offB, 0, 0, R, U, sgn)
			}}
	case Mode1DTop:
		k := kernel1D(cond)
		return kernelOps{needT: true,
			run: func(src, dst []int32, i0, step, cnt, _, offT, _ int, R, U, sgn int32) int {
				return k(src, dst, i0, step, cnt, offT, 0, 0, R, U, sgn)
			}}
	case Mode1DLeft:
		return kernelOps{needL: true, run: kernel1D(cond)}
	case Mode2D:
		ops := kernelOps{needL: true, needT: true}
		switch cond {
		case CondAlways:
			ops.run = run2DAlways
		case CondSkipUnpredictable:
			ops.run = run2DSkipU
		case CondSameSign2:
			ops.run = run2DSign2
		default: // CondSameSign3
			ops.run = run2DSign3
		}
		return ops
	case Mode3D:
		ops := kernelOps{needL: true, needT: true, needB: true}
		switch cond {
		case CondAlways:
			ops.run = run3DAlways
		case CondSkipUnpredictable:
			ops.run = run3DSkipU
		case CondSameSign2:
			ops.run = run3DSign2
		default: // CondSameSign3
			ops.run = run3DSign3
		}
		return ops
	}
	return kernelOps{}
}

// kernel1D selects the single-neighbor kernel; all three 1D modes share
// it. CondSameSign2 and CondSameSign3 degenerate identically (allow1).
//
//scdc:inline
//scdc:noalloc
func kernel1D(cond Cond) runKernel {
	switch cond {
	case CondAlways:
		return run1DAlways
	case CondSkipUnpredictable:
		return run1DSkipU
	default: // CondSameSign2, CondSameSign3
		return run1DSign
	}
}

// rowBase decomposes row index r over the three outer axes and returns
// the row's flat base index plus the outer positions.
//
//scdc:inline
//scdc:noalloc
func (rg Region) rowBase(r int) (base, p0, p1, p2 int) {
	p2 = r % rg.Ext[2]
	t := r / rg.Ext[2]
	p1 = t % rg.Ext[1]
	p0 = t / rg.Ext[1]
	base = rg.Base + p0*rg.Strd[0] + p1*rg.Strd[1] + p2*rg.Strd[2]
	return base, p0, p1, p2
}

// copyRun writes dst[i] = src[i] over one strided run.
//
//scdc:inline
//scdc:noalloc
func copyRun(src, dst []int32, i0, step, cnt int) {
	if step == 1 {
		copy(dst[i0:i0+cnt], src[i0:i0+cnt])
		return
	}
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		dst[i] = src[i]
	}
}

// regionSweep is the QP transform over one region in one direction:
// everything a row needs, resolved once per sweep.
type regionSweep struct {
	src, dst []int32
	rg       Region
	// run is nil when no point of the region has all the neighbors the
	// mode needs (ModeOff, a level above MaxLevel, a needed axis absent
	// or of extent 1): compensation is then zero everywhere.
	run              runKernel
	needAx           [4]bool // the region axes carrying a needed neighbor
	offL, offT, offB int     // their flat offsets
	R, U, sgn        int32
}

// bind resolves which region axes the mode's neighbors live on and takes
// the kernel if every one of them exists.
func (s *regionSweep) bind(ops kernelOps) {
	ok := true
	offset := func(need bool, axis int) int {
		if !need {
			return 0
		}
		if axis < 0 || s.rg.Ext[axis] <= 1 {
			ok = false
			return 0
		}
		s.needAx[axis] = true
		return s.rg.Strd[axis]
	}
	s.offL = offset(ops.needL, s.rg.Left)
	s.offT = offset(ops.needT, s.rg.Top)
	s.offB = offset(ops.needB, s.rg.Back)
	if ok {
		s.run = ops.run
	}
}

// rows sweeps the region's rows in row-major order and returns how many
// points got a nonzero compensation. It is the one place that decides a
// point has no neighbor to predict from: every point of a row at position
// zero along a needed outer axis, and the head point of any row when the
// run axis itself is needed. Such points are their own transform — copied
// when dst is a second array, left alone when the sweep is in place.
func (s *regionSweep) rows() int {
	step, n := s.rg.Strd[3], s.rg.Ext[3]
	head := 0
	if s.needAx[3] {
		head = 1
	}
	comp := 0
	cur := s.rg.RowAt(0)
	for r := s.rg.Rows(); r > 0; r-- {
		skip := head
		if s.run == nil || (s.needAx[0] && cur.P0 == 0) || (s.needAx[1] && cur.P1 == 0) || (s.needAx[2] && cur.P2 == 0) {
			skip = n
		}
		if s.sgn < 0 {
			copyRun(s.src, s.dst, cur.Base, step, skip)
		}
		if skip < n {
			comp += s.run(s.src, s.dst, cur.Base+skip*step, step, n-skip, s.offL, s.offT, s.offB, s.R, s.U, s.sgn)
		}
		s.rg.NextRow(&cur)
	}
	return comp
}

// sweep runs the transform dst[i] = src[i] + sgn*c over one region,
// visiting its axes in stride order (byStride). Forward (sgn < 0) writes
// a second array; in place (sgn > 0, dst == src) every neighbor read sees
// a symbol this sweep has already recovered.
func (p *Predictor) sweep(src, dst []int32, rg Region, sgn int32) {
	s := regionSweep{src: src, dst: dst, rg: rg.byStride(), R: p.Radius, U: p.Unpredictable, sgn: sgn}
	ops := kernelFor(p.Cfg.Mode, p.Cfg.Cond)
	if ops.run != nil && (p.Cfg.MaxLevel <= 0 || rg.Level <= p.Cfg.MaxLevel) {
		s.bind(ops)
	}
	if sgn > 0 && s.run == nil {
		return // compensation is identically zero: dst already holds Q
	}
	p.Compensated += s.rows()
}

// ForwardRegion applies the compression-side QP transform over one
// region: qp[i] = q[i] - c, kernelized. It reads only original symbols q
// and each point writes only its own qp slot, so the output is the
// reference sweep's (ForwardRegionRef). q and qp must be distinct arrays
// of the same length.
//
//scdc:hot
func (p *Predictor) ForwardRegion(q, qp []int32, rg Region) {
	p.sweep(q, qp, rg, -1)
}

// InverseRegion recovers original symbols in place over one region:
// enc[i] += c with neighbors read from already-recovered points. Every
// neighbor precedes its point in the stride-ordered visit, so the
// recovered array is the reference's (InverseRegionRef).
//
//scdc:hot
func (p *Predictor) InverseRegion(enc []int32, rg Region) {
	p.sweep(enc, enc, rg, +1)
}

// --- 1D kernels (single neighbor at flat offset off) ---

//
//scdc:noalloc
func run1DAlways(src, dst []int32, i0, step, cnt, off, _, _ int, R, _, sgn int32) int {
	dst = dst[:len(src)]
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := src[i-off] - R
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run1DSkipU(src, dst []int32, i0, step, cnt, off, _, _ int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if s := src[i-off]; s != U {
			c = s - R
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run1DSign(src, dst []int32, i0, step, cnt, off, _, _ int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if s := src[i-off]; s != U && s != R {
			comp++
			c = s - R
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

// --- 2D kernels (Left, Top, TopLeft at offL, offT, offL+offT) ---
//
// The same-sign cases compensate only next to a nonzero Left residual, so
// they load the other neighbors only then: on the near-one-bit streams QP
// is for, most points cost one load.

//
//scdc:noalloc
func run2DAlways(src, dst []int32, i0, step, cnt, offL, offT, _ int, R, _, sgn int32) int {
	dst = dst[:len(src)]
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := src[i-offL] + src[i-offT] - src[i-offLT] - R
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run2DSkipU(src, dst []int32, i0, step, cnt, offL, offT, _ int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := src[i-offL], src[i-offT], src[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			c = a + b - ab - R
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run2DSign2(src, dst []int32, i0, step, cnt, offL, offT, _ int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if a := src[i-offL]; a != U && a != R {
			b, ab := src[i-offT], src[i-offLT]
			if b != U && ab != U {
				ca, cb := a-R, b-R
				if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
					c = ca + cb - (ab - R)
				}
			}
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run2DSign3(src, dst []int32, i0, step, cnt, offL, offT, _ int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if a := src[i-offL]; a != U && a != R {
			b, ab := src[i-offT], src[i-offLT]
			if b != U && ab != U {
				ca, cb, cab := a-R, b-R, ab-R
				if (ca > 0 && cb > 0 && cab > 0) || (ca < 0 && cb < 0 && cab < 0) {
					c = ca + cb - cab
				}
			}
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

// --- 3D kernels (Left/Top/Back plus the four corner offsets) ---

//
//scdc:noalloc
func run3DAlways(src, dst []int32, i0, step, cnt, offL, offT, offB int, R, _, sgn int32) int {
	dst = dst[:len(src)]
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := src[i-offL] + src[i-offT] + src[i-offB] -
			src[i-offLT] - src[i-offLB] - src[i-offTB] +
			src[i-offLTB] - R
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run3DSkipU(src, dst []int32, i0, step, cnt, offL, offT, offB int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := src[i-offL], src[i-offT], src[i-offB]
		ab, ad, bd, abd := src[i-offLT], src[i-offLB], src[i-offTB], src[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			c = a + b + d - ab - ad - bd + abd - R
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run3DSign2(src, dst []int32, i0, step, cnt, offL, offT, offB int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if a := src[i-offL]; a != U && a != R {
			b, d := src[i-offT], src[i-offB]
			ab, ad, bd, abd := src[i-offLT], src[i-offLB], src[i-offTB], src[i-offLTB]
			if b != U && d != U && ab != U && ad != U && bd != U && abd != U {
				ca, cb := a-R, b-R
				if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
					c = a + b + d - ab - ad - bd + abd - R
				}
			}
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}

//
//scdc:noalloc
func run3DSign3(src, dst []int32, i0, step, cnt, offL, offT, offB int, R, U, sgn int32) int {
	dst = dst[:len(src)]
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if a := src[i-offL]; a != U && a != R {
			b, d := src[i-offT], src[i-offB]
			ab, ad, bd, abd := src[i-offLT], src[i-offLB], src[i-offTB], src[i-offLTB]
			if b != U && d != U && ab != U && ad != U && bd != U && abd != U {
				ca, cb, cd := a-R, b-R, d-R
				if (ca > 0 && cb > 0 && cd > 0) || (ca < 0 && cb < 0 && cd < 0) {
					c = a + b + d - ab - ad - bd + abd - R
				}
			}
		}
		if c != 0 {
			comp++
		}
		dst[i] = src[i] + sgn*c
	}
	return comp
}
