package mgard

import (
	"scdc/internal/core"
	"scdc/internal/quantizer"
)

// lanes is how many coarse lines solveBatch runs in lockstep.
const lanes = 4

// stackNodes is the largest node count whose scratch lives on
// applyCorrection's stack: every axis of up to 2·stackNodes−1 points at
// level 1, and longer ones at coarser levels. A longer line takes one heap
// buffer per level.
const stackNodes = 64

// applyCorrection adds (sign=+1, compression) or removes (sign=-1,
// decompression) the L2 projection correction for one level: for each
// axis, each coarse-lattice line solves the tridiagonal mass-matrix system
// M w = b, where b is the load vector of the (quantized) detail function
// restricted to that axis's single-axis detail class, and w is added to
// the coarse nodal values. With hat functions on a uniform grid of spacing
// h = 2s:
//
//	M interior diagonal 2h/3, boundary diagonal h/3, off-diagonal h/6
//	b_k = (s/2) * (d_{(2k-1)s} + d_{(2k+1)s})
//
// Details are derived from the stored symbols (detail = 2*(sym-R)*eb,
// zero for unpredictable points) so compression and decompression compute
// bit-identical corrections.
//
// M depends only on the line's extent and the level, so its Thomas
// factorization is computed once per axis (factor), and the lines of the
// axis run only the load vector, the forward substitution and the back
// substitution: lanes lines at a time in lockstep (solveBatch), the last
// few one by one (solve). Each line gets the per-line solve's float
// operations in its order, so the correction is bit-identical to it
// (TestCorrectionMatchesPerLineSolve). One scratch buffer serves every
// axis of the level.
func applyCorrection(data []float64, dims, strides []int, level int,
	quant quantizer.Linear, sym []int32, sign float64) {

	s := 1 << (level - 1)
	nd := len(dims)
	maxNodes := 0
	for _, n := range dims {
		if n > s {
			maxNodes = max(maxNodes, (n-1)/(2*s)+1)
		}
	}
	var buf [(2 + lanes) * stackNodes]float64
	scratch := buf[:]
	if maxNodes > stackNodes {
		scratch = make([]float64, (2+lanes)*maxNodes)
	}
	pj := projection{
		data: data, sym: sym, sign: sign, quant: quant, hs: float64(s) / 2,
		scratch: scratch,
	}
	// The coarse lattice in region axes (field axis e is region axis
	// e+pad). Collapsing axis d leaves the bases of the lines along d;
	// lines of one axis touch disjoint nodes and read only symbols, so
	// their order is free, and a batch may take lines from two rows.
	var coarse core.Region
	pad := 4 - nd
	for a := 0; a < pad; a++ {
		coarse.Ext[a] = 1
	}
	for e := 0; e < nd; e++ {
		coarse.Ext[e+pad], coarse.Strd[e+pad] = (dims[e]-1)/(2*s)+1, 2*s*strides[e]
	}
	var batch [lanes]int
	for d := 0; d < nd; d++ {
		if dims[d] <= s {
			continue // no details along this axis at this level
		}
		pj.factor(dims[d], s, strides[d])
		lines := coarse
		lines.Ext[d+pad] = 1
		cur := core.RowCursor{}
		n := 0
		for r, rows := 0, lines.Rows(); r < rows; r++ {
			for k, base := 0, cur.Base; k < lines.Ext[3]; k, base = k+1, base+lines.Strd[3] {
				batch[n] = base
				if n++; n == lanes {
					pj.solveBatch(&batch)
					n = 0
				}
			}
			lines.NextRow(&cur)
		}
		for _, base := range batch[:n] {
			pj.solve(base)
		}
	}
}

// projection is one level's correction state: the level-constant
// scalars, and the current axis's factorization and line scratch.
type projection struct {
	data  []float64
	sym   []int32
	sign  float64
	quant quantizer.Linear
	hs    float64 // s/2, the load vector's scale

	scratch []float64 // at least (2+lanes) × the level's largest node count

	// The current axis: elimination multipliers m (m[0] unused), the
	// eliminated diagonal, the load vectors of a batch's lines interleaved
	// (b[k*lanes+j] is line j's b_k), the off-diagonal h/6, the flat offset
	// of one level stride s along the axis, and how many odd positions
	// (details) the line holds.
	m, diag, b []float64
	off        float64
	ss         int
	odd        int
}

// factor runs the forward elimination of the mass matrix for lines of
// extent n at level stride s — the per-line solve's diag/m recurrence,
// which depends on neither the line nor the data.
//
//scdc:noalloc
func (pj *projection) factor(n, s, stride int) {
	nodes := (n-1)/(2*s) + 1
	pj.m, pj.diag, pj.b = pj.scratch[:nodes], pj.scratch[nodes:2*nodes], pj.scratch[2*nodes:(2+lanes)*nodes]
	pj.ss, pj.odd = s*stride, (n+s-1)/(2*s)
	h := float64(2 * s)
	pj.off = h / 6
	diag := pj.diag
	for k := range diag {
		if k == 0 || k == nodes-1 {
			diag[k] = h / 3
		} else {
			diag[k] = 2 * h / 3
		}
	}
	for k := 1; k < nodes; k++ {
		pj.m[k] = pj.off / diag[k-1]
		diag[k] -= pj.m[k] * pj.off
	}
}

// detail is a stored symbol's share of the load vector: its dequantized
// detail, or nothing for an unpredictable marker. Out-of-range points
// contribute nothing because their stored literal is the full value, not
// a detail, and the decompressor must be able to compute w before
// recovering any values.
//
//scdc:inline
func (pj *projection) detail(q int32) float64 {
	if q == quantizer.Unpredictable {
		return 0
	}
	return 2 * float64(pj.quant.Centered(q)) * pj.quant.EB
}

// solve applies the correction of the line whose first node is at flat
// index base: the load vector with its forward substitution, then the
// back substitution into the nodes. It takes an axis's last lines, fewer
// than lanes; b[k*lanes] holds its b_k.
//
//scdc:noalloc
func (pj *projection) solve(base int) {
	data, sym, m, diag, b := pj.data, pj.sym, pj.m, pj.diag, pj.b
	ss2 := 2 * pj.ss
	nodes := len(m)
	prev := 0.0 // the detail left of node k; none left of node 0
	for k := 0; k < nodes; k++ {
		next := 0.0
		if k < pj.odd {
			next = pj.detail(sym[base+pj.ss+k*ss2])
		}
		bk := pj.hs * (prev + next)
		if k > 0 {
			bk -= m[k] * b[(k-1)*lanes]
		}
		b[k*lanes] = bk
		prev = next
	}
	last := nodes - 1
	w := b[last*lanes] / diag[last]
	data[base+last*ss2] += pj.sign * w
	for k := last - 1; k >= 0; k-- {
		w = (b[k*lanes] - pj.off*w) / diag[k]
		data[base+k*ss2] += pj.sign * w
	}
}

// solveBatch is solve on the lanes lines whose first nodes are at bases,
// run in lockstep: each step loads m[k] or diag[k] once for the batch,
// and the lines' back substitutions — each one chain of dependent
// divides — overlap. Every line still gets solve's float operations in
// solve's order.
//
//scdc:hot
//scdc:noalloc
func (pj *projection) solveBatch(bases *[lanes]int) {
	data, sym, m, diag, b := pj.data, pj.sym, pj.m, pj.diag, pj.b
	ss, ss2, hs := pj.ss, 2*pj.ss, pj.hs
	b0, b1, b2, b3 := bases[0], bases[1], bases[2], bases[3]
	nodes := len(m)
	// p holds each line's detail left of node k, c its b_{k-1}.
	var p0, p1, p2, p3, c0, c1, c2, c3 float64
	for k := 0; k < nodes; k++ {
		var n0, n1, n2, n3 float64
		if k < pj.odd {
			o := ss + k*ss2
			n0, n1, n2, n3 = pj.detail(sym[b0+o]), pj.detail(sym[b1+o]), pj.detail(sym[b2+o]), pj.detail(sym[b3+o])
		}
		v0, v1, v2, v3 := hs*(p0+n0), hs*(p1+n1), hs*(p2+n2), hs*(p3+n3)
		if k > 0 {
			mk := m[k]
			v0 -= mk * c0
			v1 -= mk * c1
			v2 -= mk * c2
			v3 -= mk * c3
		}
		bk := (*[lanes]float64)(b[k*lanes:])
		bk[0], bk[1], bk[2], bk[3] = v0, v1, v2, v3
		c0, c1, c2, c3 = v0, v1, v2, v3
		p0, p1, p2, p3 = n0, n1, n2, n3
	}
	sign, off := pj.sign, pj.off
	last := nodes - 1
	dl, o := diag[last], last*ss2
	w0, w1, w2, w3 := c0/dl, c1/dl, c2/dl, c3/dl
	data[b0+o] += sign * w0
	data[b1+o] += sign * w1
	data[b2+o] += sign * w2
	data[b3+o] += sign * w3
	for k := last - 1; k >= 0; k-- {
		bk := (*[lanes]float64)(b[k*lanes:])
		dk, o := diag[k], k*ss2
		w0 = (bk[0] - off*w0) / dk
		w1 = (bk[1] - off*w1) / dk
		w2 = (bk[2] - off*w2) / dk
		w3 = (bk[3] - off*w3) / dk
		data[b0+o] += sign * w0
		data[b1+o] += sign * w1
		data[b2+o] += sign * w2
		data[b3+o] += sign * w3
	}
}
