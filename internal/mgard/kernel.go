package mgard

import (
	"scdc/internal/core"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
)

// This file holds the MGARD row kernels (DESIGN.md §6.5). A level's detail
// coefficients are swept class by class over the axis-3 rows of
// lattice.Classes. The multilinear prediction of a class point is the
// mean of its coarse-lattice corners — both sides at ±S along every odd
// axis, one-sided where +S is out of range — and the per-point reference
// (cornerAvg in the tests, over lattice.WalkClasses) rebuilds that corner
// offset list at every point. Along a row only the row axis's coordinate
// changes, and only the row's last point can lose its +S neighbor, so the
// kernel builds the list once per row in the reference's doubling order
// and sums data[o+offs[i]] in list order: the float sum is term for term
// the reference's (TestLatticeKernelsMatchWalker,
// FuzzLatticeKernelDifferential).

// sweep is the state of one direction's level sweeps over a core.Sweep's
// field, symbols and literals. It lives on compressCore's or
// decompressCore's stack and is only reached through direct method calls,
// so a sweep allocates nothing per row (TestLevelSweepAllocs).
type sweep struct {
	cs    *core.Sweep // owns the literal stream
	data  []float64   // cs.Data and cs.Sym, one load from sw in the hot loops
	sym   []int32
	fwd   bool
	quant quantizer.Linear

	// Row state: the corner offsets of the row's points. The row axis is
	// the last to double, so a last point without a +S neighbor uses
	// exactly the first half of the list.
	offs [16]int
	cnt  int
}

// sweepLevel runs one level's classes in schedule order. It returns false
// when the inverse direction runs out of literals.
//
//scdc:hot
//scdc:noalloc
func (sw *sweep) sweepLevel(classes []lattice.Class) bool {
	for ci := range classes {
		cl := &classes[ci]
		rg := cl.Region
		cur := core.RowCursor{Base: rg.Base}
		for r, rows := 0, rg.Rows(); r < rows; r++ {
			if !sw.row(cl, &cur) {
				return false
			}
			rg.NextRow(&cur)
		}
	}
	return true
}

// row builds the row's corner offset list and sweeps its points.
//
//scdc:noalloc
func (sw *sweep) row(cl *lattice.Class, cur *core.RowCursor) bool {
	pos := [4]int{cur.P0, cur.P1, cur.P2, 0}
	sw.offs[0] = 0
	cnt := 1
	for a := 0; a < 4; a++ {
		if !cl.Odd[a] {
			continue
		}
		ss := cl.S * cl.Strd[a]
		// Every row point but possibly the last has the row axis's +S
		// neighbor; an outer axis has it or not for the whole row.
		hasR := a == 3 || cl.Coord(a, pos[a])+cl.S < cl.N[a]
		for i := 0; i < cnt; i++ {
			if hasR {
				sw.offs[cnt+i] = sw.offs[i] + ss
			}
			sw.offs[i] -= ss
		}
		if hasR {
			cnt *= 2
		}
	}
	sw.cnt = cnt

	pts, step := cl.Region.Ext[3], cl.Region.Strd[3]
	full := pts
	if cl.Odd[3] && cl.Coord(3, pts-1)+cl.S >= cl.N[3] {
		full--
	}
	if !sw.run(cur.Base, step, full) {
		return false
	}
	if full < pts {
		sw.cnt = cnt / 2
		return sw.run(cur.Base+full*step, step, 1)
	}
	return true
}

// run predicts and quantizes (forward) or reconstructs (inverse) n points
// from flat index o against the current corner list.
//
//scdc:noalloc
func (sw *sweep) run(o, step, n int) bool {
	offs := sw.offs[:sw.cnt]
	div := float64(sw.cnt)
	for ; n > 0; n-- {
		sum := 0.0
		for _, off := range offs {
			sum += sw.data[o+off]
		}
		p := sum / div
		switch {
		case sw.fwd:
			d := sw.data[o]
			sym, dec, ok := sw.quant.Quantize(d, p)
			sw.sym[o] = sym
			if !ok {
				sw.cs.Lits = append(sw.cs.Lits, d)
			}
			sw.data[o] = dec
		case sw.sym[o] != quantizer.Unpredictable:
			sw.data[o] = sw.quant.Recover(p, sw.sym[o])
		default:
			v, ok := sw.cs.Literal()
			if !ok {
				return false
			}
			sw.data[o] = v
		}
		o += step
	}
	return true
}
