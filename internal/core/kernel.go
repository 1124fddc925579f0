package core

import "scdc/internal/quantizer"

// This file is the kernelized QP engine. QP is one reversible transform
// (paper §V-A, Algorithm 2): both sides compute the same compensation c
// from the same already-known neighbors, compression stores Q - c and
// decompression Q' + c. The two directions share the compensation and
// nothing else, so each (Mode, Cond) pair has its own kernels for each:
//
//   - forward (ForwardRegion): neighbors are read from the original
//     symbols q and every point writes its own slot of a second array qp.
//     Nothing a run writes is read back.
//   - inverse (InverseRegion): recovery in place, where a neighbor read
//     sees the symbol an earlier step of the same sweep recovered — the
//     order Algorithm 2 needs. The kernels store only where c != 0 (on the
//     near-one-bit streams QP is for, most points are their own inverse).
//     For the default configuration (2D, Case III) a second, "Carry" form
//     serves regions whose Left neighbor lies on the run axis: it keeps
//     the symbol it just recovered in a register as the next point's Left
//     instead of reloading it from the slot it may just have stored.
//
// The reference path (Predictor.Compensate) pays, per point, a
// Neighborhood struct build, a closure-based bounds probe and a Mode/Cond
// switch. The kernels hoist all of that out of the loop and fold the
// Radius centering into the Lorenzo arithmetic (e.g. 2D: c = a + b - ab -
// R instead of three centered() calls). A kernel addresses its run and
// each neighbor it reads as a window of n symbols, x[i0-off:][:n], and
// steps one index j through all of them, so no access in the loop needs a
// bounds check and the neighbor offsets leave the registers. The
// same-sign cases (1D sign, 2D and 3D Case III/IV) test the signs first,
// as one product of the centered operands in int64 (exact for any two
// int32 values, and > 0 exactly when both are nonzero with the same sign),
// and test the marker and load the remaining neighbors only when it
// passes. Boundary handling moves out of the loop too: a kernel run only
// ever covers points whose needed neighbors all exist, and
// regionSweep.rows is the one place that decides which points those are.
// Both directions visit a region in one sequential order, the same on
// both sides (DESIGN.md §6.1).

// fwdKernel is one forward run starting at flat index i0 with stride step
// over n symbols of the array (cnt points, n = (cnt-1)*step + 1):
// qp[i] = q[i] - c, with c computed from q at the neighbor flat offsets
// offL/offT/offB (only the ones the kernel needs are read). Returns the
// number of points with nonzero compensation.
type fwdKernel func(q, qp []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) int

// invKernel is one inverse run over the same points, in place: x[i] += c
// with the neighbors read from x. Returns the number of points with
// nonzero compensation, the only ones it stores.
type invKernel func(x []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) int

// The neighbor an offset slot of a kernel reads.
const (
	nbNone = iota
	nbLeft
	nbTop
	nbBack
)

// kernelOps bundles the kernels of one (Mode, Cond) pair with the
// neighbors they read.
type kernelOps struct {
	// nb names the neighbor behind each offset slot (offL, offT, offB).
	// Slot 0 is the in-run neighbor: Left for 2D/3D, the one neighbor of
	// a 1D mode.
	nb  [3]int
	fwd fwdKernel
	// inv loads the slot-0 neighbor per point. invCarry, where there is
	// one, carries it along the run and is the one bound when that
	// neighbor is on the run axis; only the default pair has one, the pair
	// whose decode speed the benchmark measures.
	inv, invCarry invKernel
	// caseI marks 1D Case I, which runs the Case II kernels with U = R:
	// a neighbor equal to R compensates by R - R = 0 either way.
	caseI bool
}

// kernels2D and kernels3D hold the kernels of the 2D and 3D modes by
// condition, with the neighbors they read.
var (
	nbLT, nbLTB = [3]int{nbLeft, nbTop}, [3]int{nbLeft, nbTop, nbBack}
	kernels2D   = [...]kernelOps{
		CondAlways:            {nb: nbLT, fwd: fwd2DAlways, inv: inv2DAlways},
		CondSkipUnpredictable: {nb: nbLT, fwd: fwd2DSkipU, inv: inv2DSkipU},
		CondSameSign2:         {nb: nbLT, fwd: fwd2DSign2, inv: inv2DSign2, invCarry: inv2DSign2Carry},
		CondSameSign3:         {nb: nbLT, fwd: fwd2DSign3, inv: inv2DSign3},
	}
	kernels3D = [...]kernelOps{
		CondAlways:            {nb: nbLTB, fwd: fwd3DAlways, inv: inv3DAlways},
		CondSkipUnpredictable: {nb: nbLTB, fwd: fwd3DSkipU, inv: inv3DSkipU},
		CondSameSign2:         {nb: nbLTB, fwd: fwd3DSign2, inv: inv3DSign2},
		CondSameSign3:         {nb: nbLTB, fwd: fwd3DSign3, inv: inv3DSign3},
	}
)

// kernelFor selects the kernels for a configuration. The Mode/Cond
// dispatch happens exactly once per region sweep, never per point.
// ModeOff yields zero ops. The three 1D modes share one set of kernels,
// which reads its neighbor through slot 0: Case II, III and IV coincide
// over one neighbor (a nonzero sign is a nonzero compensation), and Case
// I is Case II with U = R.
func kernelFor(mode Mode, cond Cond) kernelOps {
	switch mode {
	case Mode1DBack, Mode1DTop, Mode1DLeft:
		nb := [...]int{Mode1DBack: nbBack, Mode1DTop: nbTop, Mode1DLeft: nbLeft}[mode]
		return kernelOps{nb: [3]int{nb}, fwd: fwd1D, inv: inv1D, caseI: cond == CondAlways}
	case Mode2D:
		return kernels2D[cond]
	case Mode3D:
		return kernels3D[cond]
	}
	return kernelOps{}
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
	rg Region
	// fwd and inv are nil when no point of the region has all the
	// neighbors the mode needs (ModeOff, a level above MaxLevel, a needed
	// axis absent or of extent 1): compensation is then zero everywhere.
	fwd    fwdKernel
	inv    invKernel
	needAx [4]bool // the region axes carrying a needed neighbor
	off    [3]int  // the kernel's offset slots
	R, U   int32
}

// bind resolves which region axes the kernels' neighbors live on and
// takes the kernels if every one of them exists. The inverse carries its
// slot-0 neighbor when that neighbor lies on the run axis and the pair has
// a carrying kernel.
func (s *regionSweep) bind(ops kernelOps) {
	axis := [...]int{nbNone: -1, nbLeft: s.rg.Left, nbTop: s.rg.Top, nbBack: s.rg.Back}
	for k, nb := range ops.nb {
		switch a := axis[nb]; {
		case nb == nbNone: // an unused slot
		case a < 0 || s.rg.Ext[a] <= 1:
			return
		default:
			s.needAx[a] = true
			s.off[k] = s.rg.Strd[a]
		}
	}
	s.fwd, s.inv = ops.fwd, ops.inv
	if ops.invCarry != nil && axis[ops.nb[0]] == 3 {
		s.inv = ops.invCarry
	}
	if ops.caseI {
		s.U = s.R
	}
}

// rows sweeps the region's rows in row-major order, forward from q into
// qp or, with qp nil, inverse in place on q, and returns how many points
// got a nonzero compensation and how many a kernel visited. It is the one
// place that decides a point has no neighbor to predict from: every point
// of a row at position zero along a needed outer axis, and the head point
// of any row when the run axis itself is needed. Such points are their
// own transform — copied forward, left alone in place.
func (s *regionSweep) rows(q, qp []int32) (comp, swept int) {
	step, n := s.rg.Strd[3], s.rg.Ext[3]
	head := 0
	if s.needAx[3] {
		head = 1
	}
	cur := s.rg.RowAt(0)
	for r := s.rg.Rows(); r > 0; r-- {
		skip := head
		if s.fwd == nil || (s.needAx[0] && cur.P0 == 0) || (s.needAx[1] && cur.P1 == 0) || (s.needAx[2] && cur.P2 == 0) {
			skip = n
		}
		if qp != nil {
			copyRun(q, qp, cur.Base, step, skip)
		}
		if i0, cnt := cur.Base+skip*step, n-skip; cnt > 0 {
			span := uint((cnt-1)*step + 1)
			if qp != nil {
				comp += s.fwd(q, qp, i0, span, uint(step), s.off[0], s.off[1], s.off[2], s.R, s.U)
			} else {
				comp += s.inv(q, i0, span, uint(step), s.off[0], s.off[1], s.off[2], s.R, s.U)
			}
			swept += cnt
		}
		s.rg.NextRow(&cur)
	}
	return comp, swept
}

// sweep runs the transform over one region, visiting its axes in stride
// order (byStride): forward from q into qp, or with qp nil the inverse in
// place on q, where every neighbor read sees a symbol this sweep has
// already recovered. It returns the number of points a kernel visited.
func (p *Predictor) sweep(q, qp []int32, rg Region) int {
	s := regionSweep{rg: rg.byStride(), R: p.Radius, U: quantizer.Unpredictable}
	if p.Cfg.MaxLevel <= 0 || rg.Level <= p.Cfg.MaxLevel {
		s.bind(kernelFor(p.Cfg.Mode, p.Cfg.Cond))
	}
	if qp == nil && s.inv == nil {
		return 0 // compensation is identically zero: q already holds Q
	}
	comp, swept := s.rows(q, qp)
	p.Compensated += comp
	return swept
}

// ForwardRegion applies the compression-side QP transform over one
// region: qp[i] = q[i] - c, kernelized. It reads only original symbols q
// and each point writes only its own qp slot, so the output is the
// reference sweep's (ForwardRegionRef). q and qp must be distinct arrays
// of the same length. Returns the number of points a kernel visited.
//
//scdc:hot
func (p *Predictor) ForwardRegion(q, qp []int32, rg Region) int {
	return p.sweep(q, qp, rg)
}

// InverseRegion recovers original symbols in place over one region:
// enc[i] += c with neighbors read from already-recovered points. Every
// neighbor precedes its point in the stride-ordered visit, so the
// recovered array is the reference's (InverseRegionRef). Returns the
// number of points a kernel visited.
//
//scdc:hot
func (p *Predictor) InverseRegion(enc []int32, rg Region) int {
	return p.sweep(enc, nil, rg)
}

// --- 1D kernels (Case II; one neighbor a at flat offset offL) ---

//
//scdc:noalloc
func fwd1D(q, qp []int32, i0 int, n, step uint, offL, _, _ int, R, U int32) (comp int) {
	src, dst, left := q[i0:][:n], qp[i0:][:n], q[i0-offL:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a := left[j]; a != R && a != U {
			c = a - R
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv1D(x []int32, i0 int, n, step uint, offL, _, _ int, R, U int32) (comp int) {
	row, left := x[i0:][:n], x[i0-offL:][:n]
	for j := uint(0); j < n; j += step {
		if a := left[j]; a != R && a != U {
			row[j] += a - R
			comp++
		}
	}
	return comp
}

// --- 2D kernels (Left a, Top b, TopLeft ab at offL, offT, offL+offT) ---
//
// With Left on the run axis, TopLeft is the previous point's Top, so the
// carrying Case III kernel keeps both in registers: one load of Top per
// point.

//
//scdc:noalloc
func fwd2DAlways(q, qp []int32, i0 int, n, step uint, offL, offT, _ int, R, _ int32) (comp int) {
	src, dst := q[i0:][:n], qp[i0:][:n]
	left, top, tl := q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		c := left[j] + top[j] - tl[j] - R
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DAlways(x []int32, i0 int, n, step uint, offL, offT, _ int, R, _ int32) (comp int) {
	row, left, top, tl := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if c := left[j] + top[j] - tl[j] - R; c != 0 {
			row[j] += c
			comp++
		}
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSkipU(q, qp []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	src, dst := q[i0:][:n], qp[i0:][:n]
	left, top, tl := q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a, b, ab := left[j], top[j], tl[j]; a != U && b != U && ab != U {
			c = a + b - ab - R
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSkipU(x []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	row, left, top, tl := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b, ab := left[j], top[j], tl[j]; a != U && b != U && ab != U {
			if c := a + b - ab - R; c != 0 {
				row[j] += c
				comp++
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSign2(q, qp []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	src, dst := q[i0:][:n], qp[i0:][:n]
	left, top, tl := q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; a != U && b != U && ab != U {
				c = a + b - ab - R
			}
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSign2(x []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	row, left, top, tl := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; a != U && b != U && ab != U {
				if c := a + b - ab - R; c != 0 {
					row[j] += c
					comp++
				}
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func inv2DSign2Carry(x []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	row, top, a, ab := x[i0:][:n], x[i0-offT:][:n], x[i0-offL], x[i0-offL-offT]
	for j := uint(0); j < n; j += step {
		v, b := row[j], top[j]
		if int64(a-R)*int64(b-R) > 0 && a != U && b != U && ab != U {
			if c := a + b - ab - R; c != 0 {
				v += c
				row[j] = v
				comp++
			}
		}
		a, ab = v, b
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSign3(q, qp []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	src, dst := q[i0:][:n], qp[i0:][:n]
	left, top, tl := q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; int64(a-R)*int64(ab-R) > 0 && a != U && b != U && ab != U {
				c = a + b - ab - R
			}
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSign3(x []int32, i0 int, n, step uint, offL, offT, _ int, R, U int32) (comp int) {
	row, left, top, tl := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; int64(a-R)*int64(ab-R) > 0 && a != U && b != U && ab != U {
				if c := a + b - ab - R; c != 0 {
					row[j] += c
					comp++
				}
			}
		}
	}
	return comp
}

// --- 3D kernels (Left a, Top b, Back d plus the four corners) ---
//
// The corners are windows too: TopLeft tl (ab), BackLeft bl (ad), BackTop
// bt (bd) and BackTopLeft btl (abd).

//
//scdc:noalloc
func fwd3DAlways(q, qp []int32, i0 int, n, step uint, offL, offT, offB int, R, _ int32) (comp int) {
	src, dst, left, top, back := q[i0:][:n], qp[i0:][:n], q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offB:][:n]
	tl, bl, bt, btl := q[i0-offL-offT:][:n], q[i0-offL-offB:][:n], q[i0-offT-offB:][:n], q[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		c := left[j] + top[j] + back[j] - tl[j] - bl[j] - bt[j] + btl[j] - R
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DAlways(x []int32, i0 int, n, step uint, offL, offT, offB int, R, _ int32) (comp int) {
	row, left, top, back := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offB:][:n]
	tl, bl, bt, btl := x[i0-offL-offT:][:n], x[i0-offL-offB:][:n], x[i0-offT-offB:][:n], x[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if c := left[j] + top[j] + back[j] - tl[j] - bl[j] - bt[j] + btl[j] - R; c != 0 {
			row[j] += c
			comp++
		}
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSkipU(q, qp []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	src, dst, left, top, back := q[i0:][:n], qp[i0:][:n], q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offB:][:n]
	tl, bl, bt, btl := q[i0-offL-offT:][:n], q[i0-offL-offB:][:n], q[i0-offT-offB:][:n], q[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		a, b, d, ab, ad, bd, abd := left[j], top[j], back[j], tl[j], bl[j], bt[j], btl[j]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			c = a + b + d - ab - ad - bd + abd - R
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSkipU(x []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	row, left, top, back := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offB:][:n]
	tl, bl, bt, btl := x[i0-offL-offT:][:n], x[i0-offL-offB:][:n], x[i0-offT-offB:][:n], x[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		a, b, d, ab, ad, bd, abd := left[j], top[j], back[j], tl[j], bl[j], bt[j], btl[j]
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
				row[j] += c
				comp++
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSign2(q, qp []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	src, dst, left, top, back := q[i0:][:n], qp[i0:][:n], q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offB:][:n]
	tl, bl, bt, btl := q[i0-offL-offT:][:n], q[i0-offL-offB:][:n], q[i0-offT-offB:][:n], q[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			d, ab, ad, bd, abd := back[j], tl[j], bl[j], bt[j], btl[j]
			if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
				c = a + b + d - ab - ad - bd + abd - R
			}
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSign2(x []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	row, left, top, back := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offB:][:n]
	tl, bl, bt, btl := x[i0-offL-offT:][:n], x[i0-offL-offB:][:n], x[i0-offT-offB:][:n], x[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			d, ab, ad, bd, abd := back[j], tl[j], bl[j], bt[j], btl[j]
			if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
				if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
					row[j] += c
					comp++
				}
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSign3(q, qp []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	src, dst, left, top, back := q[i0:][:n], qp[i0:][:n], q[i0-offL:][:n], q[i0-offT:][:n], q[i0-offB:][:n]
	tl, bl, bt, btl := q[i0-offL-offT:][:n], q[i0-offL-offB:][:n], q[i0-offT-offB:][:n], q[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		var c int32
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if d := back[j]; int64(a-R)*int64(d-R) > 0 {
				ab, ad, bd, abd := tl[j], bl[j], bt[j], btl[j]
				if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
					c = a + b + d - ab - ad - bd + abd - R
				}
			}
		}
		if c != 0 {
			comp++
		}
		dst[j] = src[j] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSign3(x []int32, i0 int, n, step uint, offL, offT, offB int, R, U int32) (comp int) {
	row, left, top, back := x[i0:][:n], x[i0-offL:][:n], x[i0-offT:][:n], x[i0-offB:][:n]
	tl, bl, bt, btl := x[i0-offL-offT:][:n], x[i0-offL-offB:][:n], x[i0-offT-offB:][:n], x[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if d := back[j]; int64(a-R)*int64(d-R) > 0 {
				ab, ad, bd, abd := tl[j], bl[j], bt[j], btl[j]
				if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
					if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
						row[j] += c
						comp++
					}
				}
			}
		}
	}
	return comp
}
