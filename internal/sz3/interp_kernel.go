package sz3

import (
	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// This file is the kernelized interpolation engine (DESIGN.md §6.4). The
// reference path (compressPassRef/decompressPassRef, the test-only oracle
// in walker_oracle_test.go) pays, per point, a Point struct build, a
// closure-based interp.Line dispatch re-deriving the boundary case from
// scratch, and a quantizer.Quantize call. The kernels below hoist all of
// that out of the loop.
//
// The boundary structure of a pass is pass-constant: every line shares
// (s, n, dstr), so which interpolation stencil applies at in-line point k
// is the same for every line (DESIGN.md §6.3), and a line cuts into at
// most four segments of one stencil each (makePassKern). A run applies one
// stencil to a strided run of points. Forward, predict fills a chunk of
// the run's predictions and quantizer.Linear.QuantizeRun quantizes the
// chunk; inverse, a run kernel recovers each point as it predicts it.
//
// The walk (passKern.sweep) lays the runs along the pass's smallest
// stride. Lines come in blocks — the lines that differ only along the
// innermost orthogonal axis holding more than one line. When that axis
// steps by less than the in-line distance 2s·dstr (every pass but the one
// along the fastest axis), each in-line position k of a block is one run
// across the block's lines, so a pass along a slow axis streams through
// whole rows of memory instead of hopping planes; otherwise a block is one
// line and each segment is one run along it. Predicted points read only
// lattice samples of earlier passes and write only their own slots, so
// any visit order gives the same symbols and values.
//
// The literal stream is in line order, whatever order the runs visit.
// The runs only count unpredictable points; a pass that met any moves its
// literals in one line-order pass over its region afterwards (gatherLits,
// scatterLits) — safe because no point of a pass reads another point of
// the same pass, which is also what lets a forward run predict a whole
// chunk before it quantizes any point of it.
//
// Bit-identity with the reference walker is pinned by
// TestInterpKernelsMatchWalker and FuzzInterpKernelDifferential.

// segment is a stretch of consecutive in-line positions sharing one
// stencil.
type segment struct {
	st interp.Stencil
	n  int // points
}

// passKern is the resolved sweep geometry of one pass: the stencil
// segments every line shares and the blocks the walk runs across.
type passKern struct {
	ss   int // flat offset of one stride s along the pass direction
	ss2  int // flat offset of 2s: the in-line distance between points
	segs [4]segment
	nseg int
	// blk is the number of consecutive lines in a block and rstep the flat
	// step between them. blk == 1 when the pass direction has the smallest
	// stride: runs then go along the line.
	blk, rstep int
	quant      quantizer.Linear

	// pred holds one forward chunk's predictions, and sink takes the
	// chunk's literals, which only count here (gatherLits orders them).
	pred, sink [64]float64
}

// makePassKern resolves the kernel geometry of one pass. The stencil can
// change only at k = 1, kR and kR+1, with kR = (n-1)/(2s) - 1 the last
// point owning a right neighbour (DESIGN.md §6.3), so interp.StencilAt is
// asked at those cuts and equal neighbours merge (TestLineKernLayout).
//
//scdc:noalloc
func makePassKern(pa *pass, kind interp.Kind, quant quantizer.Linear) passKern {
	ss := pa.s * pa.dstr
	pk := passKern{
		ss:    ss,
		ss2:   2 * ss,
		blk:   1,
		quant: quant,
	}
	for k := pa.no - 1; k >= 0; k-- {
		if pa.cnt[k] > 1 {
			if pa.stride[k] < pk.ss2 {
				pk.blk, pk.rstep = pa.cnt[k], pa.stride[k]
			}
			break
		}
	}
	kR := (pa.n-1)/(2*pa.s) - 1
	k := 0
	for _, end := range [...]int{1, kR, kR + 1, pa.pointsPerLine} {
		if end <= k {
			continue
		}
		st := interp.StencilAt(pa.n, pa.s*(2*k+1), pa.s, kind)
		if pk.nseg > 0 && pk.segs[pk.nseg-1].st == st {
			pk.segs[pk.nseg-1].n += end - k
		} else {
			pk.segs[pk.nseg] = segment{st: st, n: end - k}
			pk.nseg++
		}
		k = end
	}
	return pk
}

// runKernel reconstructs cnt points o, o+step, ... that share one stencil
// from their symbols; ss is the flat offset of one sampling stride along
// their lines. It leaves unpredictable points to the literal pass and
// returns how many it met.
type runKernel func(data []float64, sym []int32, o, step, cnt, ss int, quant quantizer.Linear) int

// invKernels holds the inverse run kernels, indexed by stencil.
var invKernels = [interp.StCopyLeft + 1]runKernel{
	interp.StCubic4:      invCubic4,
	interp.StQuad3Left:   invQuad3Left,
	interp.StQuad3Right:  invQuad3Right,
	interp.StMid2:        invMid2,
	interp.StExtrapLeft2: invExtrapLeft2,
	interp.StCopyLeft:    invCopyLeft,
}

// sweep runs one direction over the pass whose region is rg (pa.qpRegion:
// its rows are the pass's lines and RowBase a line's first predicted
// point), block by block, and returns the number of unpredictable points.
// A one-line block is one run along each segment; a wider block is one run
// across its lines at each in-line position.
//
//scdc:hot
//scdc:noalloc
func (pk *passKern) sweep(fwd bool, data []float64, sym []int32, rg core.Region) int {
	nu := 0
	for li, rows := 0, rg.Rows(); li < rows; li += pk.blk {
		o := rg.RowBase(li)
		for _, sg := range pk.segs[:pk.nseg] {
			step, cnt, next := pk.ss2, sg.n, sg.n*pk.ss2
			if pk.blk > 1 {
				step, cnt, next = pk.rstep, pk.blk, pk.ss2
			}
			for end := o + sg.n*pk.ss2; o < end; o += next {
				if fwd {
					nu += pk.fwdRun(sg.st, data, sym, o, step, cnt)
				} else {
					nu += invKernels[sg.st](data, sym, o, step, cnt, pk.ss, pk.quant)
				}
			}
		}
	}
	return nu
}

// fwdRun predicts and quantizes the cnt points o, o+step, ... that share
// stencil st, a chunk of up to len(pk.pred) points at a time, and returns
// the number of unpredictable points.
//
//scdc:noalloc
func (pk *passKern) fwdRun(st interp.Stencil, data []float64, sym []int32, o, step, cnt int) int {
	nu := 0
	for cnt > 0 {
		pred := pk.pred[:min(cnt, len(pk.pred))]
		predict(st, pred, data, o, step, pk.ss)
		nu += len(pk.quant.QuantizeRun(pred, data, sym, o, step, pk.sink[:0]))
		o += len(pred) * step
		cnt -= len(pred)
	}
	return nu
}

// predict writes the stencil's prediction of the points o, o+step, ... to
// pred, one loop per stencil.
//
//scdc:noalloc
func predict(st interp.Stencil, pred, data []float64, o, step, ss int) {
	switch st {
	case interp.StCubic4:
		for i := range pred {
			pred[i] = interp.Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss])
			o += step
		}
	case interp.StQuad3Left:
		for i := range pred {
			pred[i] = interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss])
			o += step
		}
	case interp.StQuad3Right:
		for i := range pred {
			pred[i] = interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss])
			o += step
		}
	case interp.StMid2:
		for i := range pred {
			pred[i] = interp.Mid2(data[o-ss], data[o+ss])
			o += step
		}
	case interp.StExtrapLeft2:
		for i := range pred {
			pred[i] = interp.ExtrapLeft2(data[o-3*ss], data[o-ss])
			o += step
		}
	default:
		for i := range pred {
			pred[i] = data[o-ss]
			o += step
		}
	}
}

// gatherLits appends the original value of every unpredictable point of
// the pass region rg to lits, in line order. The forward kernels leave
// those values in data.
func gatherLits(data []float64, q []int32, rg core.Region, lits []float64) []float64 {
	cur := rg.RowAt(0)
	for r := rg.Rows(); r > 0; r-- {
		for k, o := 0, cur.Base; k < rg.Ext[3]; k, o = k+1, o+rg.Strd[3] {
			if q[o] == quantizer.Unpredictable {
				lits = append(lits, data[o])
			}
		}
		rg.NextRow(&cur)
	}
	return lits
}

// scatterLits reverses gatherLits: it writes lits[0], lits[1], ... into
// the unpredictable points of rg in line order. lits holds at least one
// value per such point.
func scatterLits(data []float64, sym []int32, rg core.Region, lits []float64) {
	cur, i := rg.RowAt(0), 0
	for r := rg.Rows(); r > 0; r-- {
		for k, o := 0, cur.Base; k < rg.Ext[3]; k, o = k+1, o+rg.Strd[3] {
			if sym[o] == quantizer.Unpredictable {
				data[o] = lits[i]
				i++
			}
		}
		rg.NextRow(&cur)
	}
}

//scdc:noalloc
func invMid2(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Mid2(data[o-ss], data[o+ss]), s)
		} else {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func invCubic4(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss]), s)
		} else {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func invQuad3Left(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss]), s)
		} else {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func invQuad3Right(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss]), s)
		} else {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func invExtrapLeft2(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(interp.ExtrapLeft2(data[o-3*ss], data[o-ss]), s)
		} else {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func invCopyLeft(data []float64, sym []int32, o, step, cnt, ss int, qu quantizer.Linear) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(data[o-ss], s)
		} else {
			nu++
		}
	}
	return nu
}
