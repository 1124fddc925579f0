package core

import (
	"fmt"

	"scdc/internal/obs"
	"scdc/internal/parallel"
)

// This file is the kernelized QP engine. The reference path
// (Predictor.Compensate) pays, per point, a Neighborhood struct build, a
// closure-based bounds probe and a Mode/Cond switch. The kernels below
// hoist all of that out of the loop: for each (Mode, Cond) pair there is
// one specialized forward and one specialized inverse loop over the flat
// symbol slice, with neighbor positions reduced to precomputed flat
// offsets and the Radius centering folded into the Lorenzo arithmetic
// (e.g. 2D: c = a + b - ab - R instead of three centered() calls).
//
// Boundary handling moves out of the inner loop too: a kernel run only
// ever covers points whose needed neighbors all exist, so the loops carry
// no existence checks. ForwardRegion/InverseRegion do the row analysis —
// a row whose position is zero along a needed outer axis contributes zero
// compensation everywhere (copy on compress, skip on decompress), and a
// row's first element is special only when the run axis itself carries a
// neighbor.
//
// Parallelism (see DESIGN.md §6.1): the forward sweep reads only the
// original symbols q and writes only its own qp slot, so rows split
// freely across workers. The inverse sweep mutates in place with
// neighbor dependencies, but those dependencies only connect lattice
// positions that differ along the axes the mode actually uses — so for
// modes without a Back dependency the orthogonal "free" axes enumerate
// fully independent units that run concurrently. Mode1DBack and Mode3D
// keep the sequential fallback. Per-chunk Compensated counts are integer
// sums, so totals are deterministic at any worker count; the symbol
// arrays are bit-identical by construction.

// minKernelParallelPoints is the smallest region (in points) worth
// fanning out; below it the goroutine handoff costs more than the sweep.
const minKernelParallelPoints = 2048

// fwdKernel runs one forward (compression) run of cnt points starting at
// flat index i0 with stride step, writing qp[i] = q[i] - c. Neighbor flat
// offsets are offL/offT/offB (only the ones the mode needs are read).
// Returns the number of points with nonzero compensation.
type fwdKernel func(q, qp []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int

// invKernel is the matching inverse (decompression) run: a[i] += c, with
// neighbors read from the already-recovered prefix of a.
type invKernel func(a []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int

// kernelOps bundles the specialized loops for one (Mode, Cond) pair with
// the neighbor axes the mode dereferences.
type kernelOps struct {
	needL, needT, needB bool
	fwd                 fwdKernel
	inv                 invKernel
}

// kernelFor selects the specialized kernels for a configuration. The
// Mode/Cond dispatch happens exactly once per region sweep, never per
// point. ModeOff yields zero ops (callers early-out before dispatch).
func kernelFor(mode Mode, cond Cond) kernelOps {
	switch mode {
	case Mode1DBack:
		f, v := kernel1D(cond)
		return kernelOps{needB: true,
			fwd: func(q, qp []int32, i0, step, cnt, _, _, offB int, R, U int32) int {
				return f(q, qp, i0, step, cnt, offB, R, U)
			},
			inv: func(a []int32, i0, step, cnt, _, _, offB int, R, U int32) int {
				return v(a, i0, step, cnt, offB, R, U)
			}}
	case Mode1DTop:
		f, v := kernel1D(cond)
		return kernelOps{needT: true,
			fwd: func(q, qp []int32, i0, step, cnt, _, offT, _ int, R, U int32) int {
				return f(q, qp, i0, step, cnt, offT, R, U)
			},
			inv: func(a []int32, i0, step, cnt, _, offT, _ int, R, U int32) int {
				return v(a, i0, step, cnt, offT, R, U)
			}}
	case Mode1DLeft:
		f, v := kernel1D(cond)
		return kernelOps{needL: true,
			fwd: func(q, qp []int32, i0, step, cnt, offL, _, _ int, R, U int32) int {
				return f(q, qp, i0, step, cnt, offL, R, U)
			},
			inv: func(a []int32, i0, step, cnt, offL, _, _ int, R, U int32) int {
				return v(a, i0, step, cnt, offL, R, U)
			}}
	case Mode2D:
		ops := kernelOps{needL: true, needT: true}
		switch cond {
		case CondAlways:
			ops.fwd, ops.inv = fwd2DAlways, inv2DAlways
		case CondSkipUnpredictable:
			ops.fwd, ops.inv = fwd2DSkipU, inv2DSkipU
		case CondSameSign2:
			ops.fwd, ops.inv = fwd2DSign2, inv2DSign2
		default: // CondSameSign3
			ops.fwd, ops.inv = fwd2DSign3, inv2DSign3
		}
		return ops
	case Mode3D:
		ops := kernelOps{needL: true, needT: true, needB: true}
		switch cond {
		case CondAlways:
			ops.fwd, ops.inv = fwd3DAlways, inv3DAlways
		case CondSkipUnpredictable:
			ops.fwd, ops.inv = fwd3DSkipU, inv3DSkipU
		case CondSameSign2:
			ops.fwd, ops.inv = fwd3DSign2, inv3DSign2
		default: // CondSameSign3
			ops.fwd, ops.inv = fwd3DSign3, inv3DSign3
		}
		return ops
	}
	return kernelOps{}
}

// kernel1D selects the single-neighbor loops; all three 1D modes share
// them, differing only in which precomputed offset the wrapper feeds in.
// CondSameSign2 and CondSameSign3 degenerate identically (allow1).
//
//scdc:inline
//scdc:noalloc
func kernel1D(cond Cond) (
	func(q, qp []int32, i0, step, cnt, off int, R, U int32) int,
	func(a []int32, i0, step, cnt, off int, R, U int32) int) {
	switch cond {
	case CondAlways:
		return fwd1DAlways, inv1DAlways
	case CondSkipUnpredictable:
		return fwd1DSkipU, inv1DSkipU
	default: // CondSameSign2, CondSameSign3
		return fwd1DSign, inv1DSign
	}
}

// workerSpans creates the per-worker accumulating "worker[w]" child spans
// the parallel region sweeps report into (the PR 3 worker-attribution
// pattern). Returns nil — observation off — for a nil parent or a
// sequential run; every kernel entry point accepts nil at the cost of one
// length check per chunk.
func workerSpans(sp *obs.Span, workers int) []*obs.Span {
	if sp == nil || workers <= 1 {
		return nil
	}
	ws := make([]*obs.Span, workers)
	for w := range ws {
		ws[w] = sp.ChildAccum(fmt.Sprintf("worker[%d]", w))
	}
	return ws
}

// neededAxes resolves which region axes the mode's neighbors live on and
// their flat offsets. ok is false when any needed neighbor axis is absent
// (-1) or degenerate (extent 1): then no point in the region has that
// neighbor and compensation is identically zero.
func neededAxes(rg Region, ops kernelOps) (needAx [4]bool, offL, offT, offB int, ok bool) {
	resolve := func(axis int) (int, bool) {
		if axis < 0 || rg.Ext[axis] <= 1 {
			return 0, false
		}
		needAx[axis] = true
		return rg.Strd[axis], true
	}
	ok = true
	if ops.needL {
		var okA bool
		offL, okA = resolve(rg.Left)
		ok = ok && okA
	}
	if ops.needT {
		var okA bool
		offT, okA = resolve(rg.Top)
		ok = ok && okA
	}
	if ops.needB {
		var okA bool
		offB, okA = resolve(rg.Back)
		ok = ok && okA
	}
	return needAx, offL, offT, offB, ok
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

// copyRun writes qp[i] = q[i] over one strided run.
//
//scdc:inline
//scdc:noalloc
func copyRun(q, qp []int32, i0, step, cnt int) {
	if step == 1 {
		copy(qp[i0:i0+cnt], q[i0:i0+cnt])
		return
	}
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		qp[i] = q[i]
	}
}

// copyRegion writes qp[i] = q[i] for every region point — the forward
// sweep's identity path (ModeOff, level above MaxLevel, or a region with
// none of the mode's neighbors).
func copyRegion(q, qp []int32, rg Region, workers int) {
	rows := rg.Ext[0] * rg.Ext[1] * rg.Ext[2]
	copyRows := func(lo, hi int) {
		cur := rg.RowAt(lo)
		for r := lo; r < hi; r++ {
			copyRun(q, qp, cur.Base, rg.Strd[3], rg.Ext[3])
			rg.NextRow(&cur)
		}
	}
	if workers > 1 && rows >= 2 && rg.Points() >= minKernelParallelPoints {
		parallel.ForEachChunked(rows, workers, 0, copyRows)
		return
	}
	copyRows(0, rows)
}

// regionGrain picks rows (or units) per work chunk: at least ~1024 points
// per handoff, several chunks per worker for load balance.
//
//scdc:inline
//scdc:noalloc
func regionGrain(n, unitPts, workers int) int {
	grain := n / (4 * workers)
	if minN := (1024 + unitPts - 1) / unitPts; grain < minN {
		grain = minN
	}
	if grain < 1 {
		grain = 1
	}
	return grain
}

// ForwardRegion applies the compression-side QP transform over one
// region: qp[i] = q[i] - c in row-major order, kernelized and split
// across up to workers goroutines. It reads only original symbols q and
// each point writes only its own qp slot, so any worker count produces
// the byte-identical output of the sequential reference sweep
// (ForwardRegionRef); Compensated totals are summed per chunk and added
// once. wsp, from workerSpans, attributes parallel chunk time to
// "worker[w]" spans; nil disables observation.
//
//scdc:hot
func (p *Predictor) ForwardRegion(q, qp []int32, rg Region, workers int, wsp []*obs.Span) {
	ops := kernelFor(p.Cfg.Mode, p.Cfg.Cond)
	if ops.fwd == nil || (p.Cfg.MaxLevel > 0 && rg.Level > p.Cfg.MaxLevel) {
		copyRegion(q, qp, rg, workers)
		return
	}
	needAx, offL, offT, offB, ok := neededAxes(rg, ops)
	if !ok {
		copyRegion(q, qp, rg, workers)
		return
	}
	R, U := p.Radius, p.Unpredictable
	s3, rowLen := rg.Strd[3], rg.Ext[3]
	// fwdRows sweeps rows [lo, hi) with the row odometer: one rowBase
	// decomposition at the chunk start, increments after that.
	fwdRows := func(lo, hi int) int {
		comp := 0
		cur := rg.RowAt(lo)
		for r := lo; r < hi; r++ {
			base := cur.Base
			if (needAx[0] && cur.P0 == 0) || (needAx[1] && cur.P1 == 0) || (needAx[2] && cur.P2 == 0) {
				copyRun(q, qp, base, s3, rowLen)
			} else {
				head := 0
				if needAx[3] {
					qp[base] = q[base]
					head = 1
				}
				comp += ops.fwd(q, qp, base+head*s3, s3, rowLen-head, offL, offT, offB, R, U)
			}
			rg.NextRow(&cur)
		}
		return comp
	}

	rows := rg.Ext[0] * rg.Ext[1] * rg.Ext[2]
	if workers <= 1 || rows < 2 || rg.Points() < minKernelParallelPoints {
		p.Compensated += fwdRows(0, rows)
		return
	}
	grain := regionGrain(rows, rowLen, workers)
	comps := make([]int, parallel.Chunks(rows, grain))
	parallel.ForEachWorker(len(comps), workers, func(w, c int) {
		var sp *obs.Span // accumulator from workerSpans; nil when observation is off
		if w < len(wsp) {
			sp = wsp[w]
		}
		t0 := sp.Begin()
		lo := c * grain
		comps[c] = fwdRows(lo, min(lo+grain, rows))
		sp.AddSince(t0)
	})
	total := 0
	for _, c := range comps {
		total += c
	}
	p.Compensated += total
}

// InverseRegion recovers original symbols in place over one region:
// enc[i] += c with neighbors read from already-recovered points. The
// sequential path replays the exact row-major reference order
// (InverseRegionRef). For modes without a Back dependency the dependency
// graph only connects points that differ along the mode's own axes, so
// the remaining "free" axes enumerate independent units that run
// concurrently — every unit is dependency-closed, making the recovered
// array bit-identical at any worker count. Mode1DBack/Mode3D use the
// sequential path regardless of workers.
//
//scdc:hot
func (p *Predictor) InverseRegion(enc []int32, rg Region, workers int, wsp []*obs.Span) {
	ops := kernelFor(p.Cfg.Mode, p.Cfg.Cond)
	if ops.inv == nil || (p.Cfg.MaxLevel > 0 && rg.Level > p.Cfg.MaxLevel) {
		return // compensation is identically zero: enc already holds Q
	}
	needAx, offL, offT, offB, ok := neededAxes(rg, ops)
	if !ok {
		return
	}
	R, U := p.Radius, p.Unpredictable
	s3, rowLen := rg.Strd[3], rg.Ext[3]

	if !ops.needB && workers > 1 && rg.Points() >= minKernelParallelPoints {
		// Plane-parallel path: dep = the axes carrying neighbors, free =
		// the rest; each free-axis position is an independent unit.
		var dep, free []int
		for a := 0; a < 4; a++ {
			if needAx[a] {
				dep = append(dep, a)
			} else {
				free = append(free, a)
			}
		}
		units := 1
		for _, a := range free {
			units *= rg.Ext[a]
		}
		if units >= 2 {
			invUnit := func(u int) int {
				base := rg.Base
				rem := u
				for j := len(free) - 1; j >= 0; j-- {
					a := free[j]
					base += (rem % rg.Ext[a]) * rg.Strd[a]
					rem /= rg.Ext[a]
				}
				d := dep[len(dep)-1] // innermost dep axis sweeps row-major
				if len(dep) == 1 {
					return ops.inv(enc, base+rg.Strd[d], rg.Strd[d], rg.Ext[d]-1, offL, offT, offB, R, U)
				}
				o := dep[0]
				comp := 0
				for po := 1; po < rg.Ext[o]; po++ {
					comp += ops.inv(enc, base+po*rg.Strd[o]+rg.Strd[d], rg.Strd[d], rg.Ext[d]-1, offL, offT, offB, R, U)
				}
				return comp
			}
			grain := regionGrain(units, rg.Points()/units, workers)
			comps := make([]int, parallel.Chunks(units, grain))
			parallel.ForEachWorker(len(comps), workers, func(w, c int) {
				var sp *obs.Span // accumulator from workerSpans; nil when observation is off
				if w < len(wsp) {
					sp = wsp[w]
				}
				t0 := sp.Begin()
				lo := c * grain
				hi := min(lo+grain, units)
				comp := 0
				for u := lo; u < hi; u++ {
					comp += invUnit(u)
				}
				comps[c] = comp
				sp.AddSince(t0)
			})
			total := 0
			for _, c := range comps {
				total += c
			}
			p.Compensated += total
			return
		}
	}

	rows := rg.Ext[0] * rg.Ext[1] * rg.Ext[2]
	comp := 0
	head := 0
	if needAx[3] {
		head = 1
	}
	cur := RowCursor{Base: rg.Base}
	for r := 0; r < rows; r++ {
		if !((needAx[0] && cur.P0 == 0) || (needAx[1] && cur.P1 == 0) || (needAx[2] && cur.P2 == 0)) {
			comp += ops.inv(enc, cur.Base+head*s3, s3, rowLen-head, offL, offT, offB, R, U)
		}
		rg.NextRow(&cur)
	}
	p.Compensated += comp
}

// --- 1D kernels (single neighbor at flat offset off) ---

//
//scdc:noalloc
func fwd1DAlways(q, qp []int32, i0, step, cnt, off int, R, _ int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := q[i-off] - R
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv1DAlways(a []int32, i0, step, cnt, off int, R, _ int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := a[i-off] - R
		if c != 0 {
			comp++
		}
		a[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd1DSkipU(q, qp []int32, i0, step, cnt, off int, R, U int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if s := q[i-off]; s != U {
			c = s - R
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv1DSkipU(a []int32, i0, step, cnt, off int, R, U int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		var c int32
		if s := a[i-off]; s != U {
			c = s - R
		}
		if c != 0 {
			comp++
		}
		a[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd1DSign(q, qp []int32, i0, step, cnt, off int, R, U int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		if s := q[i-off]; s != U && s != R {
			comp++
			qp[i] = q[i] - (s - R)
		} else {
			qp[i] = q[i]
		}
	}
	return comp
}

//
//scdc:noalloc
func inv1DSign(a []int32, i0, step, cnt, off int, R, U int32) int {
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		if s := a[i-off]; s != U && s != R {
			comp++
			a[i] += s - R
		}
	}
	return comp
}

// --- 2D kernels (Left, Top, TopLeft at offL, offT, offL+offT) ---

//
//scdc:noalloc
func fwd2DAlways(q, qp []int32, i0, step, cnt, offL, offT, _ int, R, _ int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := q[i-offL] + q[i-offT] - q[i-offLT] - R
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DAlways(a []int32, i0, step, cnt, offL, offT, _ int, R, _ int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := a[i-offL] + a[i-offT] - a[i-offLT] - R
		if c != 0 {
			comp++
		}
		a[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSkipU(q, qp []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := q[i-offL], q[i-offT], q[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			c = a + b - ab - R
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSkipU(arr []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := arr[i-offL], arr[i-offT], arr[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			c = a + b - ab - R
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSign2(q, qp []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := q[i-offL], q[i-offT], q[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			ca, cb := a-R, b-R
			if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
				c = ca + cb - (ab - R)
			}
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSign2(arr []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := arr[i-offL], arr[i-offT], arr[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			ca, cb := a-R, b-R
			if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
				c = ca + cb - (ab - R)
			}
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd2DSign3(q, qp []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := q[i-offL], q[i-offT], q[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			ca, cb, cab := a-R, b-R, ab-R
			if (ca > 0 && cb > 0 && cab > 0) || (ca < 0 && cb < 0 && cab < 0) {
				c = ca + cb - cab
			}
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv2DSign3(arr []int32, i0, step, cnt, offL, offT, _ int, R, U int32) int {
	offLT := offL + offT
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, ab := arr[i-offL], arr[i-offT], arr[i-offLT]
		var c int32
		if a != U && b != U && ab != U {
			ca, cb, cab := a-R, b-R, ab-R
			if (ca > 0 && cb > 0 && cab > 0) || (ca < 0 && cb < 0 && cab < 0) {
				c = ca + cb - cab
			}
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}

// --- 3D kernels (Left/Top/Back plus the four corner offsets) ---

//
//scdc:noalloc
func fwd3DAlways(q, qp []int32, i0, step, cnt, offL, offT, offB int, R, _ int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := q[i-offL] + q[i-offT] + q[i-offB] -
			q[i-offLT] - q[i-offLB] - q[i-offTB] +
			q[i-offLTB] - R
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DAlways(a []int32, i0, step, cnt, offL, offT, offB int, R, _ int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		c := a[i-offL] + a[i-offT] + a[i-offB] -
			a[i-offLT] - a[i-offLB] - a[i-offTB] +
			a[i-offLTB] - R
		if c != 0 {
			comp++
		}
		a[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSkipU(q, qp []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := q[i-offL], q[i-offT], q[i-offB]
		ab, ad, bd, abd := q[i-offLT], q[i-offLB], q[i-offTB], q[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			c = a + b + d - ab - ad - bd + abd - R
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSkipU(arr []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := arr[i-offL], arr[i-offT], arr[i-offB]
		ab, ad, bd, abd := arr[i-offLT], arr[i-offLB], arr[i-offTB], arr[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			c = a + b + d - ab - ad - bd + abd - R
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSign2(q, qp []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := q[i-offL], q[i-offT], q[i-offB]
		ab, ad, bd, abd := q[i-offLT], q[i-offLB], q[i-offTB], q[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			ca, cb := a-R, b-R
			if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
				c = a + b + d - ab - ad - bd + abd - R
			}
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSign2(arr []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := arr[i-offL], arr[i-offT], arr[i-offB]
		ab, ad, bd, abd := arr[i-offLT], arr[i-offLB], arr[i-offTB], arr[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			ca, cb := a-R, b-R
			if (ca > 0 && cb > 0) || (ca < 0 && cb < 0) {
				c = a + b + d - ab - ad - bd + abd - R
			}
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}

//
//scdc:noalloc
func fwd3DSign3(q, qp []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := q[i-offL], q[i-offT], q[i-offB]
		ab, ad, bd, abd := q[i-offLT], q[i-offLB], q[i-offTB], q[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			ca, cb, cd := a-R, b-R, d-R
			if (ca > 0 && cb > 0 && cd > 0) || (ca < 0 && cb < 0 && cd < 0) {
				c = a + b + d - ab - ad - bd + abd - R
			}
		}
		if c != 0 {
			comp++
		}
		qp[i] = q[i] - c
	}
	return comp
}

//
//scdc:noalloc
func inv3DSign3(arr []int32, i0, step, cnt, offL, offT, offB int, R, U int32) int {
	offLT, offLB, offTB := offL+offT, offL+offB, offT+offB
	offLTB := offLT + offB
	comp := 0
	for k, i := 0, i0; k < cnt; k, i = k+1, i+step {
		a, b, d := arr[i-offL], arr[i-offT], arr[i-offB]
		ab, ad, bd, abd := arr[i-offLT], arr[i-offLB], arr[i-offTB], arr[i-offLTB]
		var c int32
		if a != U && b != U && d != U && ab != U && ad != U && bd != U && abd != U {
			ca, cb, cd := a-R, b-R, d-R
			if (ca > 0 && cb > 0 && cd > 0) || (ca < 0 && cb < 0 && cd < 0) {
				c = a + b + d - ab - ad - bd + abd - R
			}
		}
		if c != 0 {
			comp++
		}
		arr[i] += c
	}
	return comp
}
