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
// scratch, and a quantizer.Quantize call. The kernels below hoist all of
// that out of the loop.
//
// The boundary structure of a pass is pass-constant: every line shares
// (s, n, dstr), so which interpolation stencil applies at in-line point k
// is the same for every line (DESIGN.md §6.3), and a line cuts into at
// most four segments of one stencil each (makePassKern). A run kernel
// applies one stencil to a strided run of points, with the
// quantize→reconstruct step of quantizer.Linear fused into the same loop.
//
// The walk (passKern.sweep) runs those kernels along the pass's smallest
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
// The literal stream is in line order, whatever order the kernels visit.
// The kernels only count unpredictable points; a pass that met any moves
// its literals in one line-order pass over its region afterwards
// (gatherLits, scatterLits) — safe because no point of a pass reads
// another point of the same pass.
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
	prm        quantParams
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
		ss:  ss,
		ss2: 2 * ss,
		blk: 1,
		prm: quantParams{
			eb:  quant.EB,
			eb2: 2 * quant.EB,
			rf:  float64(quant.Radius),
			r:   quant.Radius,
		},
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

// runKernel sweeps cnt points o, o+step, ... that share one stencil; ss
// is the flat offset of one sampling stride along their lines. A forward
// kernel predicts and quantizes, writing sym and the reconstruction into
// data; an inverse kernel reconstructs data from sym. Both leave
// unpredictable points to the literal pass and return how many they met.
type runKernel func(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int

// kernelTable holds one direction's run kernels, indexed by stencil.
type kernelTable [interp.StCopyLeft + 1]runKernel

var (
	fwdKernels = kernelTable{
		interp.StCubic4:      fwdCubic4,
		interp.StQuad3Left:   fwdQuad3Left,
		interp.StQuad3Right:  fwdQuad3Right,
		interp.StMid2:        fwdMid2,
		interp.StExtrapLeft2: fwdExtrapLeft2,
		interp.StCopyLeft:    fwdCopyLeft,
	}
	invKernels = kernelTable{
		interp.StCubic4:      invCubic4,
		interp.StQuad3Left:   invQuad3Left,
		interp.StQuad3Right:  invQuad3Right,
		interp.StMid2:        invMid2,
		interp.StExtrapLeft2: invExtrapLeft2,
		interp.StCopyLeft:    invCopyLeft,
	}
)

// sweep runs one direction's kernels over the pass whose region is rg
// (pa.qpRegion: its rows are the pass's lines and RowBase a line's first
// predicted point), block by block, and returns the number of
// unpredictable points. A one-line block runs along its line.
//
//scdc:hot
//scdc:noalloc
func (pk *passKern) sweep(kern *kernelTable, data []float64, sym []int32, rg core.Region) int {
	nu := 0
	for li, rows := 0, rg.Rows(); li < rows; li += pk.blk {
		o := rg.RowBase(li)
		for _, sg := range pk.segs[:pk.nseg] {
			run := kern[sg.st]
			if pk.blk == 1 {
				nu += run(data, sym, o, pk.ss2, sg.n, pk.ss, pk.prm)
				o += sg.n * pk.ss2
				continue
			}
			for end := o + sg.n*pk.ss2; o < end; o += pk.ss2 {
				nu += run(data, sym, o, pk.rstep, pk.blk, pk.ss, pk.prm)
			}
		}
	}
	return nu
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

// fwdQuant quantizes data[o] against pred, storing the symbol in q[o]
// and the reconstruction in data[o]. It hand-mirrors
// quantizer.Linear.Quantize — the same operations in the same order, so
// results are bit-identical (TestFusedQuantMatchesQuantizer pins this).
// math.Round alone costs 57 of the 80-point inlining budget, so neither
// Quantize nor this helper can ever inline; the interior kernels
// (fwdMid2, fwdCubic4) therefore expand this exact body at their predict
// site, and the edge kernels call it. Returns false for an unpredictable
// point: q[o] holds the marker and data[o] is left as the original value.
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

// --- forward kernels ---

//scdc:noalloc
func fwdMid2(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		pred := interp.Mid2(data[o-ss], data[o+ss])
		d := data[o]
		qf := (d - pred) / pm.eb2
		if qf < pm.rf && qf > -pm.rf {
			if qq := int32(math.Round(qf)); qq < pm.r && qq > -pm.r {
				dec := pred + 2*float64(qq)*pm.eb
				if math.Abs(dec-d) <= pm.eb {
					q[o] = qq + pm.r
					data[o] = dec
					continue
				}
			}
		}
		q[o] = quantizer.Unpredictable
		nu++
	}
	return nu
}

//scdc:noalloc
func fwdCubic4(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		pred := interp.Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss])
		d := data[o]
		qf := (d - pred) / pm.eb2
		if qf < pm.rf && qf > -pm.rf {
			if qq := int32(math.Round(qf)); qq < pm.r && qq > -pm.r {
				dec := pred + 2*float64(qq)*pm.eb
				if math.Abs(dec-d) <= pm.eb {
					q[o] = qq + pm.r
					data[o] = dec
					continue
				}
			}
		}
		q[o] = quantizer.Unpredictable
		nu++
	}
	return nu
}

//scdc:noalloc
func fwdQuad3Left(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if !fwdQuant(data, q, o, interp.Quad3Left(data[o-3*ss], data[o-ss], data[o+ss]), pm) {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func fwdQuad3Right(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if !fwdQuant(data, q, o, interp.Quad3Right(data[o-ss], data[o+ss], data[o+3*ss]), pm) {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func fwdExtrapLeft2(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if !fwdQuant(data, q, o, interp.ExtrapLeft2(data[o-3*ss], data[o-ss]), pm) {
			nu++
		}
	}
	return nu
}

//scdc:noalloc
func fwdCopyLeft(data []float64, q []int32, o, step, cnt, ss int, pm quantParams) int {
	nu := 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if !fwdQuant(data, q, o, data[o-ss], pm) {
			nu++
		}
	}
	return nu
}

// --- inverse kernels ---

//scdc:noalloc
func invMid2(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
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
func invCubic4(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
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
func invQuad3Left(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
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
func invQuad3Right(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
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
func invExtrapLeft2(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
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
func invCopyLeft(data []float64, sym []int32, o, step, cnt, ss int, pm quantParams) int {
	qu, nu := quantizer.Linear{EB: pm.eb, Radius: pm.r}, 0
	for ; cnt > 0; cnt, o = cnt-1, o+step {
		if s := sym[o]; s != quantizer.Unpredictable {
			data[o] = qu.Recover(data[o-ss], s)
		} else {
			nu++
		}
	}
	return nu
}
