package core

import "scdc/internal/quantizer"

// This file is the kernelized QP engine. QP is one reversible transform
// (paper §V-A, Algorithm 2): both sides compute the same compensation c
// from the same already-known neighbors, compression stores Q - c and
// decompression Q' + c. So each (Mode, Cond) pair has one kernel that
// runs both directions: it adds c, or -c, to the points where c != 0 (on
// the near-one-bit streams QP is for, most points are their own inverse).
//
//   - inverse (InverseRegion): recovery in place, where a neighbor read
//     sees the symbol an earlier step of the same sweep recovered — the
//     order Algorithm 2 needs. For the default configuration (2D, Case
//     III) a second, "Carry" form serves regions whose Left neighbor lies
//     on the run axis: it keeps the symbol it just recovered in a register
//     as the next point's Left instead of reloading it from the slot it
//     may just have stored.
//   - forward (ForwardRegion): the sweep copies each row of the original
//     symbols q into qp, and the kernel subtracts c there with every
//     neighbor read from q. Nothing a run writes is read back.
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

// kernel is one run of the transform starting at flat index i0 with
// stride step over n symbols (cnt points, n = (cnt-1)*step + 1): it adds
// c^neg - neg (c when neg is 0, -c when it is -1) to dst at every point
// where c != 0, computing c from src at the neighbor flat offsets
// offL/offT/offB (only the ones the kernel needs are read). It returns
// the number of points with nonzero compensation, the only ones it stores.
// The inverse calls it in place, k(x, x, …, 0): a neighbor read sees a
// symbol this sweep has already recovered. The forward calls k(qp, q, …,
// -1) over a row already copied from q to qp, so every neighbor read is an
// original symbol.
type kernel func(dst, src []int32, i0 int, n, step uint, offL, offT, offB int, R, U, neg int32) int

// The neighbor an offset slot of a kernel reads.
const (
	nbNone = iota
	nbLeft
	nbTop
	nbBack
)

// kernelOps bundles the kernel of one (Mode, Cond) pair with the
// neighbors it reads.
type kernelOps struct {
	// nb names the neighbor behind each offset slot (offL, offT, offB).
	// Slot 0 is the in-run neighbor: Left for 2D/3D, the one neighbor of
	// a 1D mode.
	nb [3]int
	// k loads the slot-0 neighbor per point and runs either direction.
	// carry, where there is one, keeps it in a register along the run and
	// is valid for the inverse only (forward, the symbols it would carry
	// are transformed ones); the inverse binds it when that neighbor is on
	// the run axis. Only the default pair has one, the pair whose decode
	// speed the benchmark measures.
	k, carry kernel
	// caseI marks 1D Case I, which runs the Case II kernel with U = R:
	// a neighbor equal to R compensates by R - R = 0 either way.
	caseI bool
}

// kernels2D and kernels3D hold the kernels of the 2D and 3D modes by
// condition, with the neighbors they read.
var (
	nbLT, nbLTB = [3]int{nbLeft, nbTop}, [3]int{nbLeft, nbTop, nbBack}
	kernels2D   = [...]kernelOps{
		CondAlways:            {nb: nbLT, k: qp2DAlways},
		CondSkipUnpredictable: {nb: nbLT, k: qp2DSkipU},
		CondSameSign2:         {nb: nbLT, k: qp2DSign2, carry: inv2DSign2Carry},
		CondSameSign3:         {nb: nbLT, k: qp2DSign3},
	}
	kernels3D = [...]kernelOps{
		CondAlways:            {nb: nbLTB, k: qp3DAlways},
		CondSkipUnpredictable: {nb: nbLTB, k: qp3DSkipU},
		CondSameSign2:         {nb: nbLTB, k: qp3DSign2},
		CondSameSign3:         {nb: nbLTB, k: qp3DSign3},
	}
)

// kernelFor selects the kernels for a configuration. The Mode/Cond
// dispatch happens exactly once per region sweep, never per point.
// ModeOff yields zero ops. The three 1D modes share one kernel, which
// reads its neighbor through slot 0: Case II, III and IV coincide over one
// neighbor (a nonzero sign is a nonzero compensation), and Case I is Case
// II with U = R.
func kernelFor(mode Mode, cond Cond) kernelOps {
	switch mode {
	case Mode1DBack, Mode1DTop, Mode1DLeft:
		nb := [...]int{Mode1DBack: nbBack, Mode1DTop: nbTop, Mode1DLeft: nbLeft}[mode]
		return kernelOps{nb: [3]int{nb}, k: qp1D, caseI: cond == CondAlways}
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

// copyRun writes dst[i] = src[i] over one strided run of cnt >= 1
// points, through windows of its span like the kernels. A run of one
// point may have step 0 (a region of extent-1 axes only); its span is 1.
//
//scdc:inline
//scdc:noalloc
func copyRun(src, dst []int32, i0, step, cnt int) {
	n := uint((cnt-1)*step + 1)
	s, d := src[i0:][:n], dst[i0:][:n]
	if step <= 1 {
		copy(d, s)
		return
	}
	for j := uint(0); j < n; j += uint(step) {
		d[j] = s[j]
	}
}

// regionSweep is the QP transform over one region in one direction:
// everything a row needs, resolved once per sweep.
type regionSweep struct {
	rg Region
	// k is nil when no point of the region has all the neighbors the mode
	// needs (ModeOff, a level above MaxLevel, a needed axis absent or of
	// extent 1): compensation is then zero everywhere.
	k      kernel
	needAx [4]bool // the region axes carrying a needed neighbor
	off    [3]int  // the kernel's offset slots
	R, U   int32
	neg    int32 // -1 forward (store Q - c), 0 inverse (recover Q' + c)
}

// bind resolves which region axes the kernel's neighbors live on and
// takes the kernel if every one of them exists. The inverse carries its
// slot-0 neighbor when that neighbor lies on the run axis and the pair has
// a carrying kernel; the forward always takes the loading one.
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
	s.k = ops.k
	if s.neg == 0 && ops.carry != nil && axis[ops.nb[0]] == 3 {
		s.k = ops.carry
	}
	if ops.caseI {
		s.U = s.R
	}
}

// rows sweeps the region's rows in row-major order and returns how many
// points got a nonzero compensation and how many a kernel visited. The
// forward first copies every row of src into dst and then compensates it;
// the inverse works in place (dst is src). It is the one place that
// decides a point has no neighbor to predict from: every point of a row at
// position zero along a needed outer axis, and the head point of any row
// when the run axis itself is needed. Such points are their own transform
// — copied forward, left alone in place.
func (s *regionSweep) rows(dst, src []int32) (comp, swept int) {
	step, n := s.rg.Strd[3], s.rg.Ext[3]
	head := 0
	if s.needAx[3] {
		head = 1
	}
	cur := s.rg.RowAt(0)
	for r := s.rg.Rows(); r > 0; r-- {
		skip := head
		if s.k == nil || (s.needAx[0] && cur.P0 == 0) || (s.needAx[1] && cur.P1 == 0) || (s.needAx[2] && cur.P2 == 0) {
			skip = n
		}
		if s.neg != 0 && n > 0 {
			copyRun(src, dst, cur.Base, step, n)
		}
		if i0, cnt := cur.Base+skip*step, n-skip; cnt > 0 {
			span := uint((cnt-1)*step + 1)
			comp += s.k(dst, src, i0, span, uint(step), s.off[0], s.off[1], s.off[2], s.R, s.U, s.neg)
			swept += cnt
		}
		s.rg.NextRow(&cur)
	}
	return comp, swept
}

// sweep runs the transform over one region, visiting its axes in stride
// order (byStride): forward (neg = -1) from src into dst, or inverse
// (neg = 0) in place with dst and src the same array, where every neighbor
// read sees a symbol this sweep has already recovered. It returns the
// number of points a kernel visited.
func (p *Predictor) sweep(dst, src []int32, rg Region, neg int32) int {
	s := regionSweep{rg: rg.byStride(), R: p.Radius, U: quantizer.Unpredictable, neg: neg}
	if p.Cfg.MaxLevel <= 0 || rg.Level <= p.Cfg.MaxLevel {
		s.bind(kernelFor(p.Cfg.Mode, p.Cfg.Cond))
	}
	if neg == 0 && s.k == nil {
		return 0 // compensation is identically zero: src already holds Q
	}
	comp, swept := s.rows(dst, src)
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
	return p.sweep(qp, q, rg, -1)
}

// InverseRegion recovers original symbols in place over one region:
// enc[i] += c with neighbors read from already-recovered points. Every
// neighbor precedes its point in the stride-ordered visit, so the
// recovered array is the reference's (InverseRegionRef). Returns the
// number of points a kernel visited.
//
//scdc:hot
func (p *Predictor) InverseRegion(enc []int32, rg Region) int {
	return p.sweep(enc, enc, rg, 0)
}

// --- 1D kernel (Case II; one neighbor a at flat offset offL) ---

//
//scdc:noalloc
func qp1D(dst, src []int32, i0 int, n, step uint, offL, _, _ int, R, U, neg int32) (comp int) {
	row, left := dst[i0:][:n], src[i0-offL:][:n]
	for j := uint(0); j < n; j += step {
		if a := left[j]; a != R && a != U {
			row[j] += (a - R) ^ neg - neg
			comp++
		}
	}
	return comp
}

// --- 2D kernels (Left a, Top b, TopLeft ab at offL, offT, offL+offT) ---
//
// With Left on the run axis, TopLeft is the previous point's Top, so the
// carrying Case III inverse keeps both in registers: one load of Top per
// point.

//
//scdc:noalloc
func qp2DAlways(dst, src []int32, i0 int, n, step uint, offL, offT, _ int, R, _, neg int32) (comp int) {
	row, left, top, tl := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if c := left[j] + top[j] - tl[j] - R; c != 0 {
			row[j] += c ^ neg - neg
			comp++
		}
	}
	return comp
}

//
//scdc:noalloc
func qp2DSkipU(dst, src []int32, i0 int, n, step uint, offL, offT, _ int, R, U, neg int32) (comp int) {
	row, left, top, tl := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b, ab := left[j], top[j], tl[j]; a != U && b != U && ab != U {
			if c := a + b - ab - R; c != 0 {
				row[j] += c ^ neg - neg
				comp++
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func qp2DSign2(dst, src []int32, i0 int, n, step uint, offL, offT, _ int, R, U, neg int32) (comp int) {
	row, left, top, tl := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; a != U && b != U && ab != U {
				if c := a + b - ab - R; c != 0 {
					row[j] += c ^ neg - neg
					comp++
				}
			}
		}
	}
	return comp
}

// inv2DSign2Carry is qp2DSign2 for the inverse only (dst is src, neg is
// 0), with Left on the run axis: the symbol a step recovers is the next
// step's Left.
//
//scdc:noalloc
func inv2DSign2Carry(x, _ []int32, i0 int, n, step uint, offL, offT, _ int, R, U, _ int32) (comp int) {
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
func qp2DSign3(dst, src []int32, i0 int, n, step uint, offL, offT, _ int, R, U, neg int32) (comp int) {
	row, left, top, tl := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offL-offT:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if ab := tl[j]; int64(a-R)*int64(ab-R) > 0 && a != U && b != U && ab != U {
				if c := a + b - ab - R; c != 0 {
					row[j] += c ^ neg - neg
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
func qp3DAlways(dst, src []int32, i0 int, n, step uint, offL, offT, offB int, R, _, neg int32) (comp int) {
	row, left, top, back := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offB:][:n]
	tl, bl, bt, btl := src[i0-offL-offT:][:n], src[i0-offL-offB:][:n], src[i0-offT-offB:][:n], src[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if c := left[j] + top[j] + back[j] - tl[j] - bl[j] - bt[j] + btl[j] - R; c != 0 {
			row[j] += c ^ neg - neg
			comp++
		}
	}
	return comp
}

//
//scdc:noalloc
func qp3DSkipU(dst, src []int32, i0 int, n, step uint, offL, offT, offB int, R, U, neg int32) (comp int) {
	row, left, top, back := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offB:][:n]
	tl, bl, bt, btl := src[i0-offL-offT:][:n], src[i0-offL-offB:][:n], src[i0-offT-offB:][:n], src[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		a, b, d, ab, ad, bd, abd := left[j], top[j], back[j], tl[j], bl[j], bt[j], btl[j]
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
				row[j] += c ^ neg - neg
				comp++
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func qp3DSign2(dst, src []int32, i0 int, n, step uint, offL, offT, offB int, R, U, neg int32) (comp int) {
	row, left, top, back := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offB:][:n]
	tl, bl, bt, btl := src[i0-offL-offT:][:n], src[i0-offL-offB:][:n], src[i0-offT-offB:][:n], src[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			d, ab, ad, bd, abd := back[j], tl[j], bl[j], bt[j], btl[j]
			if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
				if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
					row[j] += c ^ neg - neg
					comp++
				}
			}
		}
	}
	return comp
}

//
//scdc:noalloc
func qp3DSign3(dst, src []int32, i0 int, n, step uint, offL, offT, offB int, R, U, neg int32) (comp int) {
	row, left, top, back := dst[i0:][:n], src[i0-offL:][:n], src[i0-offT:][:n], src[i0-offB:][:n]
	tl, bl, bt, btl := src[i0-offL-offT:][:n], src[i0-offL-offB:][:n], src[i0-offT-offB:][:n], src[i0-offL-offT-offB:][:n]
	for j := uint(0); j < n; j += step {
		if a, b := left[j], top[j]; int64(a-R)*int64(b-R) > 0 {
			if d := back[j]; int64(a-R)*int64(d-R) > 0 {
				ab, ad, bd, abd := tl[j], bl[j], bt[j], btl[j]
				if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
					if c := a + b + d - ab - ad - bd + abd - R; c != 0 {
						row[j] += c ^ neg - neg
						comp++
					}
				}
			}
		}
	}
	return comp
}
