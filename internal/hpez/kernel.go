package hpez

import (
	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
)

// This file holds the HPEZ row kernels (DESIGN.md §6.5). A level is swept
// class by class over the axis-3 rows of lattice.Classes, and everything
// the per-point reference (predict in the tests, over lattice.WalkClasses)
// re-derives at each point is resolved once at the scope where it is
// constant:
//
//	row      the coordinate along every outer axis, which fixes an outer
//	         odd axis's boundary case for the whole row, and the outer
//	         axes' part of the block index;
//	run      the spline kind and axis weights — one run per 32-wide block
//	         along the row at levels <= 2, where they are block-tuned, the
//	         whole row above — and from them the tap list: the odd,
//	         non-frozen, non-zero-weight axes in ascending order, or every
//	         odd axis at weight 1 when that list is empty;
//	segment  the boundary case of the row axis itself when it is odd:
//	         head (no left third), interior, right edge, trailing point.
//
// A segment is then swept tap-major, in chunks of up to len(sweep.acc)
// points: the chunk's accumulators start at +0.0, each tap adds w*p over
// the whole chunk in one loop specialised to its stencil (accumulate),
// and the finishing step divides by the run-constant weight sum and
// quantizes the chunk in one quantizer.Linear.QuantizeRun call, or
// recovers each point. Per point that is the reference's
// arithmetic, term for term and in tap order, so symbols, literals and
// reconstructions are bit-identical (TestLatticeKernelsMatchWalker,
// FuzzLatticeKernelDifferential). Evaluating every tap before any point
// of the chunk is written is valid because a tap reads at ±s or ±3s along
// an odd axis, which flips that axis's parity: no tap reads a point of
// its own class (lattice's TestTapsLeaveClass).

// tap is one axis's share of a run's prediction.
type tap struct {
	w  float64        // axis weight
	ss int            // flat offset of one level stride along the axis
	st interp.Stencil // boundary case, constant over the segment
}

// sweep is the state of one direction's level sweeps over a core.Sweep's
// field, symbols and literals. It lives on compressCore's or
// decompressCore's stack and is only ever reached through direct method
// calls, so a sweep allocates nothing per row or run
// (TestLevelSweepAllocs).
type sweep struct {
	cs   *core.Sweep // owns the literal stream
	data []float64   // cs.Data and cs.Sym, one load from sw in the hot loops
	sym  []int32
	fwd  bool
	pl   *plan
	pad  int    // leading padding axes of the class regions: 4 - nd
	bmul [3]int // block-index multiplier of each outer region axis

	// Level and class state.
	level int
	quant quantizer.Linear
	cl    *lattice.Class

	// Row state: the outer axes' coordinates — they fix each outer odd
	// axis's boundary case for the whole row — and their share of the
	// block index.
	coord      [3]int
	blockOuter int

	// Run state.
	taps  [4]tap
	na    int
	wsum  float64
	inner int // index in taps of the row axis, whose case is per segment; -1 if absent

	// acc holds one chunk's weighted tap sums.
	acc [64]float64
}

// newSweep resolves the level-independent state.
func newSweep(cs *core.Sweep, fwd bool, pl *plan, nd int) sweep {
	sw := sweep{cs: cs, data: cs.Data, sym: cs.Sym, fwd: fwd, pl: pl, pad: 4 - nd}
	// blockIndex is row-major over the block grid: the row axis has
	// multiplier 1, each outer axis the product of the grids inside it.
	mul := pl.blockGrid[nd-1]
	for d := nd - 2; d >= 0; d-- {
		sw.bmul[d+sw.pad] = mul
		mul *= pl.blockGrid[d]
	}
	return sw
}

// sweepLevel runs one level's classes in schedule order. It returns false
// when the inverse direction runs out of literals.
//
//scdc:hot
//scdc:noalloc
func (sw *sweep) sweepLevel(classes []lattice.Class, level int) bool {
	sw.level = level
	sw.quant = quantizer.Linear{EB: sw.pl.ebs[level-1], Radius: sw.pl.radius}
	for ci := range classes {
		sw.cl = &classes[ci]
		rg := sw.cl.Region
		cur := core.RowCursor{Base: rg.Base}
		for r, rows := 0, rg.Rows(); r < rows; r++ {
			if !sw.row(&cur) {
				return false
			}
			rg.NextRow(&cur)
		}
	}
	return true
}

// row sweeps one row: it fixes the outer axes' coordinates, then cuts the
// row into runs of constant (kind, weights) and those into segments of
// constant row-axis case.
//
//scdc:noalloc
func (sw *sweep) row(cur *core.RowCursor) bool {
	cl := sw.cl
	s := cl.S
	sw.blockOuter = 0
	for a, p := range [3]int{cur.P0, cur.P1, cur.P2} {
		sw.coord[a] = cl.Coord(a, p)
		sw.blockOuter += sw.coord[a] / blockSize * sw.bmul[a]
	}

	n, step, pts := cl.N[3], cl.Region.Strd[3], cl.Region.Ext[3]
	// Last row point with a right neighbor (t+s < n for t = s(2k+1)); the
	// row-axis case can only change at k = 1, kR and kR+1.
	kR := (n-1)/(2*s) - 1
	kind, weights, frozen := interp.Cubic, sw.pl.weights[sw.level-1], sw.pl.frozen[sw.level-1]
	for k := 0; k < pts; {
		runEnd := pts
		if sw.level <= 2 {
			// Block-wise tuned kind and weights take over at the fine
			// levels; the global freeze mask no longer applies (a locally
			// bad axis simply gets a near-zero local weight).
			c := cl.Coord(3, k)
			b := c / blockSize
			bi := sw.blockOuter + b
			kind = interp.Linear
			if sw.pl.blockIsCubic(bi) {
				kind = interp.Cubic
			}
			weights, frozen = sw.pl.blockWeights[bi], 0
			runEnd = min(pts, k+((b+1)*blockSize-c+2*s-1)/(2*s))
		}
		sw.setTaps(kind, weights, frozen)
		for k < runEnd {
			segEnd := runEnd
			if sw.inner >= 0 {
				sw.taps[sw.inner].st = interp.StencilAt(n, cl.Coord(3, k), s, kind)
				switch {
				case k < 1:
					segEnd = 1
				case k < kR:
					segEnd = kR
				case k == kR:
					segEnd = kR + 1
				}
				segEnd = min(segEnd, runEnd)
			}
			if !sw.segment(cur.Base+k*step, step, segEnd-k) {
				return false
			}
			k = segEnd
		}
	}
	return true
}

// setTaps builds the run's tap list: HPEZ's multi-component interpolation
// over the odd, non-frozen, non-zero-weight axes in ascending order, or —
// when every odd axis is frozen or zero-weighted — the unweighted average
// over all odd axes.
//
//scdc:noalloc
func (sw *sweep) setTaps(kind interp.Kind, weights [4]uint8, frozen uint8) {
	sw.na, sw.wsum, sw.inner = 0, 0, -1
	for a := sw.pad; a < 4; a++ {
		d := uint(a - sw.pad)
		if sw.cl.Odd[a] && frozen&(1<<d) == 0 && weights[d] != 0 {
			sw.addTap(a, float64(weights[d]), kind)
		}
	}
	if sw.na == 0 {
		for a := sw.pad; a < 4; a++ {
			if sw.cl.Odd[a] {
				sw.addTap(a, 1, kind)
			}
		}
	}
}

//scdc:noalloc
func (sw *sweep) addTap(a int, w float64, kind interp.Kind) {
	cl := sw.cl
	t := &sw.taps[sw.na]
	t.w, t.ss = w, cl.S*cl.Strd[a]
	if a == 3 {
		sw.inner = sw.na // row sets the case per segment
	} else {
		t.st = interp.StencilAt(cl.N[a], sw.coord[a], cl.S, kind)
	}
	sw.wsum += w
	sw.na++
}

// segment predicts and quantizes (forward) or reconstructs (inverse) cnt
// points from flat index o, chunk by chunk and tap-major. It returns false
// when the inverse direction runs out of literals.
//
//scdc:hot
//scdc:noalloc
func (sw *sweep) segment(o, step, cnt int) bool {
	for cnt > 0 {
		acc := sw.acc[:min(cnt, len(sw.acc))]
		clear(acc)
		for i := range sw.taps[:sw.na] {
			accumulate(acc, sw.data, o, step, &sw.taps[i])
		}
		if sw.fwd {
			sw.fwdChunk(acc, o, step)
		} else if !sw.invChunk(acc, o, step) {
			return false
		}
		o += len(acc) * step
		cnt -= len(acc)
	}
	return true
}

// accumulate adds the tap's weighted stencil at the points o, o+step, …
// to acc, one loop per stencil. The arithmetic is interp.Stencil.At's.
//
//scdc:noalloc
func accumulate(acc, data []float64, o, step int, t *tap) {
	w, ss := t.w, t.ss
	switch t.st {
	case interp.StCubic4:
		for i := range acc {
			acc[i] += w * interp.Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss])
			o += step
		}
	case interp.StQuad3Left:
		for i := range acc {
			acc[i] += w * interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss])
			o += step
		}
	case interp.StQuad3Right:
		for i := range acc {
			acc[i] += w * interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss])
			o += step
		}
	case interp.StMid2:
		for i := range acc {
			acc[i] += w * interp.Mid2(data[o-ss], data[o+ss])
			o += step
		}
	case interp.StExtrapLeft2:
		for i := range acc {
			acc[i] += w * interp.ExtrapLeft2(data[o-3*ss], data[o-ss])
			o += step
		}
	default:
		for i := range acc {
			acc[i] += w * data[o-ss]
			o += step
		}
	}
}

// fwdChunk turns the chunk's tap sums into predictions and quantizes the
// chunk in one run.
//
//scdc:noalloc
func (sw *sweep) fwdChunk(acc []float64, o, step int) {
	for i := range acc {
		acc[i] /= sw.wsum
	}
	sw.cs.Lits = sw.quant.QuantizeRun(acc, sw.data, sw.sym, o, step, sw.cs.Lits)
}

// invChunk reconstructs the chunk's points from their tap sums: a literal
// for an unpredictable symbol, the recovered prediction otherwise.
//
//scdc:noalloc
func (sw *sweep) invChunk(acc []float64, o, step int) bool {
	data, sym, wsum := sw.data, sw.sym, sw.wsum
	for _, a := range acc {
		if q := sym[o]; q != quantizer.Unpredictable {
			data[o] = sw.quant.Recover(a/wsum, q)
		} else if v, ok := sw.cs.Literal(); ok {
			data[o] = v
		} else {
			return false
		}
		o += step
	}
	return true
}
