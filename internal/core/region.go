package core

// Region describes the geometry one QP sweep operates on: a rectangular
// strided sub-lattice of the flat quantization index array. Its rows are
// the axis-3 runs in row-major order (axis 0 slowest); the QP sweeps
// visit it with its axes in stride order instead (byStride). Every walker
// in the repository — the SZ3/QoZ interpolation pass, the HPEZ/MGARD parity
// class and the Lorenzo scan — reduces to this shape, which is what lets
// a single set of specialized kernels (kernel.go) replace the per-point
// Neighborhood construction of the reference Compensate path.
//
// The QP neighbor geometry is uniform: the Left/Top/Back neighbor of a
// point is the previous lattice position along the designated axis (one
// axis step back, i.e. at flat offset -Strd[axis]), and it exists exactly
// when the point's position along that axis is >= 1. Corner neighbors
// (TopLeft, Back*) are the evident combinations. Region validity is the
// caller's contract: positions must be in bounds of the symbol slice and
// distinct, which every walker above guarantees by construction.
type Region struct {
	// Base is the flat index of the region origin (all positions zero).
	Base int
	// Ext holds the per-axis lattice extents; unused axes have extent 1.
	Ext [4]int
	// Strd holds the per-axis flat strides (array elements per lattice
	// step). The stride of an unused axis is ignored.
	Strd [4]int
	// Left, Top, Back name the axes carrying the QP neighbors, or -1 when
	// the geometry has no such neighbor. The three must be distinct.
	Left, Top, Back int
	// Level is the interpolation level the region belongs to, checked
	// against Config.MaxLevel exactly like Neighborhood.Level.
	Level int
}

// Rows returns the number of axis-3 runs of the region — the unit of
// work of the QP sweeps and the lattice row kernels, and the lines of an
// SZ3 pass.
func (rg Region) Rows() int {
	return rg.Ext[0] * rg.Ext[1] * rg.Ext[2]
}

// RowBase returns the flat index of the first axis-3 point of row r,
// with rows numbered in row-major order over the three outer axes —
// exactly the order Rows-based sweeps visit them.
//
//scdc:inline
//scdc:noalloc
func (rg Region) RowBase(r int) int {
	base, _, _, _ := rg.rowBase(r)
	return base
}

// RowCursor is the odometer of a row sweep: the outer-axis positions of
// the current axis-3 row and its flat base index. Row sweeps (QP kernels,
// lattice row kernels, SZ3's literal passes) step it with NextRow instead
// of paying rowBase's two divides and two modulos per row; RowAt seeds
// it. The positions are named fields rather than an array because that
// is what keeps NextRow inside the inlining budget.
type RowCursor struct {
	P0, P1, P2 int // positions along axes 0..2
	Base       int // flat index of the row's first point
}

// RowAt returns the cursor of row r (rows numbered as in RowBase).
func (rg Region) RowAt(r int) RowCursor {
	base, p0, p1, p2 := rg.rowBase(r)
	return RowCursor{P0: p0, P1: p1, P2: p2, Base: base}
}

// NextRow advances c to the next row in row-major order. Stepping past
// the last row leaves a cursor that must not be dereferenced.
//
//scdc:inline
//scdc:noalloc
func (rg Region) NextRow(c *RowCursor) {
	c.P2++
	c.Base += rg.Strd[2]
	if c.P2 == rg.Ext[2] {
		rg.carryRow(c)
	}
}

// carryRow is NextRow's axis-2 wrap, kept out of line so the per-row
// step stays within the inlining budget.
//
//scdc:noalloc
//go:noinline
func (rg Region) carryRow(c *RowCursor) {
	c.P2 = 0
	c.P1++
	c.Base += rg.Strd[1] - rg.Ext[2]*rg.Strd[2]
	if c.P1 == rg.Ext[1] {
		c.P1 = 0
		c.P0++
		c.Base += rg.Strd[0] - rg.Ext[1]*rg.Strd[1]
	}
}

// byStride returns rg with its axes reordered for a sweep: extent-1 axes
// outermost, the rest by descending stride, ties in their given order —
// so the run axis (3) is the one with the smallest stride. Left, Top and
// Back follow their axes. The point set and every neighbor are unchanged,
// and so is the transform: a Left/Top/Back or corner neighbor is one step
// back along a subset of the axes, so it precedes its point in every
// lexicographic order over them, and any axis order is a valid recovery
// order.
//
//scdc:noalloc
func (rg Region) byStride() Region {
	ax := [4]int{0, 1, 2, 3}
	before := func(a, b int) bool { // a sorts before b
		if (rg.Ext[a] > 1) != (rg.Ext[b] > 1) {
			return rg.Ext[a] <= 1
		}
		return rg.Strd[a] > rg.Strd[b]
	}
	for i := 1; i < 4; i++ { // insertion sort: stable
		for j := i; j > 0 && before(ax[j], ax[j-1]); j-- {
			ax[j], ax[j-1] = ax[j-1], ax[j]
		}
	}
	out := rg
	out.Left, out.Top, out.Back = -1, -1, -1
	for i, a := range ax {
		out.Ext[i], out.Strd[i] = rg.Ext[a], rg.Strd[a]
		switch a {
		case rg.Left:
			out.Left = i
		case rg.Top:
			out.Top = i
		case rg.Back:
			out.Back = i
		}
	}
	return out
}

// neighborhood builds the reference Neighborhood of the point at the
// given lattice position — the bridge between Region geometry and the
// per-point Compensate path the kernels are differentially tested
// against.
func (rg Region) neighborhood(pos [4]int) (idx int, nb Neighborhood) {
	idx = rg.Base
	for a := 0; a < 4; a++ {
		idx += pos[a] * rg.Strd[a]
	}
	nb = Neighborhood{
		Level: rg.Level,
		Left:  -1, Top: -1, TopLeft: -1,
		Back: -1, BackLeft: -1, BackTop: -1, BackTopLeft: -1,
	}
	hasL := rg.Left >= 0 && pos[rg.Left] >= 1
	hasT := rg.Top >= 0 && pos[rg.Top] >= 1
	hasB := rg.Back >= 0 && pos[rg.Back] >= 1
	if hasL {
		nb.Left = idx - rg.Strd[rg.Left]
	}
	if hasT {
		nb.Top = idx - rg.Strd[rg.Top]
	}
	if hasL && hasT {
		nb.TopLeft = idx - rg.Strd[rg.Left] - rg.Strd[rg.Top]
	}
	if hasB {
		nb.Back = idx - rg.Strd[rg.Back]
		if hasL {
			nb.BackLeft = nb.Back - rg.Strd[rg.Left]
		}
		if hasT {
			nb.BackTop = nb.Back - rg.Strd[rg.Top]
		}
		if hasL && hasT {
			nb.BackTopLeft = nb.Back - rg.Strd[rg.Left] - rg.Strd[rg.Top]
		}
	}
	return idx, nb
}

// forEachPoint visits the region's points in row-major order with the
// reference neighborhood.
func (rg Region) forEachPoint(fn func(idx int, nb Neighborhood)) {
	var pos [4]int
	for pos[0] = 0; pos[0] < rg.Ext[0]; pos[0]++ {
		for pos[1] = 0; pos[1] < rg.Ext[1]; pos[1]++ {
			for pos[2] = 0; pos[2] < rg.Ext[2]; pos[2]++ {
				for pos[3] = 0; pos[3] < rg.Ext[3]; pos[3]++ {
					idx, nb := rg.neighborhood(pos)
					fn(idx, nb)
				}
			}
		}
	}
}

// ForwardRegionRef is the reference forward sweep: the per-point
// Compensate path over the region in row-major order, writing
// qp[i] = q[i] - Compensate(q, nb). The kernelized ForwardRegion is
// pinned against it by differential tests and fuzzing; it is not used on
// hot paths.
func (p *Predictor) ForwardRegionRef(q, qp []int32, rg Region) {
	rg.forEachPoint(func(idx int, nb Neighborhood) {
		qp[idx] = q[idx] - p.Compensate(q, nb)
	})
}

// InverseRegionRef is the reference inverse sweep: enc[i] += Compensate
// in row-major order, the exact decompressor visit order.
func (p *Predictor) InverseRegionRef(enc []int32, rg Region) {
	rg.forEachPoint(func(idx int, nb Neighborhood) {
		enc[idx] += p.Compensate(enc, nb)
	})
}

// RegionCount returns how many region points of a currently hold symbol
// sym — used by the MGARD decoder to index the literal stream per level
// after the inverse QP sweep.
func RegionCount(a []int32, rg Region, sym int32) int {
	n := 0
	for p0 := 0; p0 < rg.Ext[0]; p0++ {
		for p1 := 0; p1 < rg.Ext[1]; p1++ {
			for p2 := 0; p2 < rg.Ext[2]; p2++ {
				i := rg.Base + p0*rg.Strd[0] + p1*rg.Strd[1] + p2*rg.Strd[2]
				for p3 := 0; p3 < rg.Ext[3]; p3++ {
					if a[i] == sym {
						n++
					}
					i += rg.Strd[3]
				}
			}
		}
	}
	return n
}
