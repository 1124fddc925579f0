package mgard

import (
	"scdc/internal/core"
	"scdc/internal/quantizer"
)

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
// factorization is computed once per axis (factor) and every line of the
// axis runs only the load vector, the forward substitution and the back
// substitution (solve) — the per-line solve's float operations in its
// order, so the correction is bit-identical to it
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
	pj := projection{
		data: data, sym: sym, sign: sign, quant: quant, hs: float64(s) / 2,
		scratch: make([]float64, 3*maxNodes),
	}
	// The coarse lattice in region axes (field axis e is region axis
	// e+pad). Collapsing axis d leaves the bases of the lines along d;
	// lines of one axis touch disjoint nodes and read only symbols, so
	// their order is free.
	var coarse core.Region
	pad := 4 - nd
	for a := 0; a < pad; a++ {
		coarse.Ext[a] = 1
	}
	for e := 0; e < nd; e++ {
		coarse.Ext[e+pad], coarse.Strd[e+pad] = (dims[e]-1)/(2*s)+1, 2*s*strides[e]
	}
	for d := 0; d < nd; d++ {
		if dims[d] <= s {
			continue // no details along this axis at this level
		}
		pj.factor(dims[d], s, strides[d])
		lines := coarse
		lines.Ext[d+pad] = 1
		cur := core.RowCursor{}
		for r, rows := 0, lines.Rows(); r < rows; r++ {
			for k, base := 0, cur.Base; k < lines.Ext[3]; k, base = k+1, base+lines.Strd[3] {
				pj.solve(base)
			}
			lines.NextRow(&cur)
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

	scratch []float64 // 3 × the level's largest node count

	// The current axis: elimination multipliers m (m[0] unused), the
	// eliminated diagonal, the load vector, the off-diagonal h/6, the
	// flat offset of one level stride s along the axis, and how many odd
	// positions (details) the line holds.
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
	pj.m, pj.diag, pj.b = pj.scratch[:nodes], pj.scratch[nodes:2*nodes], pj.scratch[2*nodes:3*nodes]
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

// solve applies the correction of the line whose first node is at flat
// index base: the load vector with its forward substitution, then the
// back substitution into the nodes.
//
//scdc:noalloc
func (pj *projection) solve(base int) {
	data, sym, m, diag, b := pj.data, pj.sym, pj.m, pj.diag, pj.b
	ss2 := 2 * pj.ss
	prev := 0.0 // the detail left of node k; none left of node 0
	for k := range b {
		next := 0.0
		if k < pj.odd {
			if q := sym[base+pj.ss+k*ss2]; q != quantizer.Unpredictable {
				// Out-of-range points contribute nothing: their stored
				// literal is the full value, not a detail, and the
				// decompressor must be able to compute w before recovering
				// any values.
				next = 2 * float64(pj.quant.Centered(q)) * pj.quant.EB
			}
		}
		bk := pj.hs * (prev + next)
		if k > 0 {
			bk -= m[k] * b[k-1]
		}
		b[k] = bk
		prev = next
	}
	last := len(b) - 1
	w := b[last] / diag[last]
	data[base+last*ss2] += pj.sign * w
	for k := last - 1; k >= 0; k-- {
		w = (b[k] - pj.off*w) / diag[k]
		data[base+k*ss2] += pj.sign * w
	}
}
