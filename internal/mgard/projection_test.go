package mgard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scdc/internal/grid"
	"scdc/internal/quantizer"
)

// applyCorrectionRef is the per-line form of applyCorrection, the
// reference its factored solve reproduces bit for bit: every coarse line
// of every axis builds its own mass matrix and runs the whole Thomas
// solve.
func applyCorrectionRef(data []float64, dims, strides []int, level int,
	quant quantizer.Linear, sym []int32, sign float64) {

	s := 1 << (level - 1)
	for d := range dims {
		if dims[d] <= s {
			continue
		}
		forEachCoarseLine(dims, strides, d, 2*s, func(base int) {
			correctLine(data, sym, quant, base, strides[d], dims[d], s, sign)
		})
	}
}

// forEachCoarseLine visits the flat base index of every line running along
// axis d whose other coordinates are multiples of step.
func forEachCoarseLine(dims, strides []int, d, step int, fn func(base int)) {
	nd := len(dims)
	var walk func(axis, base int)
	walk = func(axis, base int) {
		if axis == nd {
			fn(base)
			return
		}
		if axis == d {
			walk(axis+1, base)
			return
		}
		for c := 0; c < dims[axis]; c += step {
			walk(axis+1, base+c*strides[axis])
		}
	}
	walk(0, 0)
}

// correctLine solves the 1D projection system on one line and applies the
// correction to the coarse nodes (positions 0, 2s, 4s, ... < n).
func correctLine(data []float64, sym []int32, quant quantizer.Linear,
	base, stride, n, s int, sign float64) {

	h := float64(2 * s)
	nodes := (n-1)/(2*s) + 1
	if nodes < 1 {
		return
	}

	detail := func(pos int) float64 {
		if pos < 0 || pos >= n {
			return 0
		}
		q := sym[base+pos*stride]
		if q == quantizer.Unpredictable {
			return 0
		}
		return 2 * float64(quant.Centered(q)) * quant.EB
	}

	// Load vector.
	b := make([]float64, nodes)
	for k := 0; k < nodes; k++ {
		p := 2 * k * s
		b[k] = (float64(s) / 2) * (detail(p-s) + detail(p+s))
	}

	// Thomas solve for tridiagonal M.
	diag := make([]float64, nodes)
	for k := range diag {
		if k == 0 || k == nodes-1 {
			diag[k] = h / 3
		} else {
			diag[k] = 2 * h / 3
		}
	}
	if nodes == 1 {
		data[base] += sign * b[0] / diag[0]
		return
	}
	off := h / 6
	// Forward elimination.
	for k := 1; k < nodes; k++ {
		m := off / diag[k-1]
		diag[k] -= m * off
		b[k] -= m * b[k-1]
	}
	// Back substitution.
	w := b[nodes-1] / diag[nodes-1]
	data[base+2*(nodes-1)*s*stride] += sign * w
	for k := nodes - 2; k >= 0; k-- {
		w = (b[k] - off*w) / diag[k]
		data[base+2*k*s*stride] += sign * w
	}
}

// TestCorrectionMatchesPerLineSolve: the factored, batched correction
// leaves the same bits as the per-line reference, on 1D–4D extents
// including 1, 2 and 3, at every level, for both signs, on smooth symbols
// and on literal-heavy ones (every third an unpredictable marker). The
// shapes give some axis every line count modulo lanes, so each tail
// length meets solve, and batches that take lines from two rows of the
// collapsed region.
func TestCorrectionMatchesPerLineSolve(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {3}, {9}, {64}, {1025},
		{1, 3}, {2, 2}, {3, 17}, {33, 2}, {5, 7}, {13, 5},
		{1, 2, 3}, {3, 3, 3}, {17, 9, 33}, {2, 40, 5}, {9, 9, 3}, {6, 10, 7},
		{1, 1, 2, 3}, {2, 3, 1, 5}, {3, 9, 6, 17},
	}
	quant := quantizer.Linear{EB: 0.0137, Radius: 1 << 10}
	tails, straddles := map[int]bool{}, false
	for _, dims := range shapes {
		n, maxDim := 1, 0
		for _, d := range dims {
			n *= d
			maxDim = max(maxDim, d)
		}
		strides := grid.Strides(dims)
		for level := 1; 1<<(level-1) < maxDim; level++ {
			for _, c := range lineCounts(dims, level) {
				tails[c.lines%lanes] = true
				for i := lanes - 1; i < c.lines-c.lines%lanes; i += lanes {
					straddles = straddles || i/c.row != (i-lanes+1)/c.row
				}
			}
		}
		for _, heavy := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			sym := make([]int32, n)
			field := make([]float64, n)
			for i := range sym {
				sym[i] = quant.CenterSym() + int32(rng.Intn(801)-400)
				if heavy && rng.Intn(3) == 0 {
					sym[i] = quantizer.Unpredictable
				}
				field[i] = rng.NormFloat64()
			}
			for level := 1; 1<<(level-1) < maxDim; level++ {
				for _, sign := range []float64{+1, -1} {
					name := fmt.Sprintf("%v/heavy=%v/level=%d/sign=%+g", dims, heavy, level, sign)
					got := append([]float64(nil), field...)
					want := append([]float64(nil), field...)
					applyCorrection(got, dims, strides, level, quant, sym, sign)
					applyCorrectionRef(want, dims, strides, level, quant, sym, sign)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: index %d: got %v want %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if len(tails) != lanes || !straddles {
		t.Fatalf("line counts modulo %d seen %v, a batch across rows %v; the shapes should give every tail and a straddling batch",
			lanes, tails, straddles)
	}
}

// lineCount is how many coarse lines run along one axis at a level, and
// how many of them one row of applyCorrection's collapsed region holds.
type lineCount struct{ lines, row int }

// lineCounts returns the line counts of every axis that has details at
// level.
func lineCounts(dims []int, level int) []lineCount {
	s := 1 << (level - 1)
	var out []lineCount
	for d := range dims {
		if dims[d] <= s {
			continue
		}
		c := lineCount{lines: 1, row: 1}
		for e, n := range dims {
			if e != d {
				c.lines *= (n-1)/(2*s) + 1
			}
		}
		if last := len(dims) - 1; d != last {
			c.row = (dims[last]-1)/(2*s) + 1
		}
		out = append(out, c)
	}
	return out
}

// naiveSolve solves a tridiagonal system (diag d, off-diagonal o) by
// dense Gaussian elimination, as an independent oracle.
func naiveSolve(d []float64, o float64, b []float64) []float64 {
	n := len(d)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		a[i][i] = d[i]
		if i > 0 {
			a[i][i-1] = o
		}
		if i < n-1 {
			a[i][i+1] = o
		}
		a[i][n] = b[i]
	}
	for i := 0; i < n; i++ {
		p := a[i][i]
		for j := i; j <= n; j++ {
			a[i][j] /= p
		}
		for k := 0; k < n; k++ {
			if k == i || a[k][i] == 0 {
				continue
			}
			f := a[k][i]
			for j := i; j <= n; j++ {
				a[k][j] -= f * a[i][j]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = a[i][n]
	}
	return x
}

// TestCorrectLineMatchesOracle: the projection's Thomas solve on one line
// must agree with dense elimination on the documented mass-matrix system.
func TestCorrectLineMatchesOracle(t *testing.T) {
	const n, s = 9, 1
	eb := 0.01
	quant := quantizer.Linear{EB: eb, Radius: 1 << 10}
	// Detail symbols at odd positions (centered values 3, -2, 5, 1).
	sym := make([]int32, n)
	for i := range sym {
		sym[i] = quant.CenterSym()
	}
	details := map[int]int32{1: 3, 3: -2, 5: 5, 7: 1}
	for pos, q := range details {
		sym[pos] = quant.CenterSym() + q
	}

	// Oracle: b_k = (s/2)(d_{2k-1} + d_{2k+1}); M diag 2h/3 interior, h/3
	// boundary, off h/6 with h = 2s.
	dval := func(pos int) float64 {
		if q, ok := details[pos]; ok {
			return 2 * float64(q) * eb
		}
		return 0
	}
	h := float64(2 * s)
	nodes := 5
	b := make([]float64, nodes)
	diag := make([]float64, nodes)
	for k := 0; k < nodes; k++ {
		p := 2 * k * s
		b[k] = (float64(s) / 2) * (dval(p-s) + dval(p+s))
		if k == 0 || k == nodes-1 {
			diag[k] = h / 3
		} else {
			diag[k] = 2 * h / 3
		}
	}
	want := naiveSolve(diag, h/6, b)

	data := make([]float64, n)
	applyCorrection(data, []int{n}, []int{1}, 1, quant, sym, +1)
	for k := 0; k < nodes; k++ {
		if math.Abs(data[2*k]-want[k]) > 1e-12 {
			t.Fatalf("node %d: got %g want %g", k, data[2*k], want[k])
		}
	}
	// Odd positions untouched.
	for _, pos := range []int{1, 3, 5, 7} {
		if data[pos] != 0 {
			t.Fatalf("detail position %d modified", pos)
		}
	}
	// Applying with sign -1 cancels exactly.
	applyCorrection(data, []int{n}, []int{1}, 1, quant, sym, -1)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("correction did not cancel at %d: %g", i, v)
		}
	}
}

// TestCorrectLineSingleNode covers the degenerate one-node system.
func TestCorrectLineSingleNode(t *testing.T) {
	quant := quantizer.Linear{EB: 0.5, Radius: 1 << 8}
	sym := []int32{quant.CenterSym(), quant.CenterSym() + 4}
	data := make([]float64, 2)
	applyCorrection(data, []int{2}, []int{1}, 1, quant, sym, +1)
	// b0 = 0.5 * d(1) = 0.5 * 4 * 2 * 0.5 = 2; w = b0/(h/3) = 2/(2/3) = 3.
	if math.Abs(data[0]-3) > 1e-12 {
		t.Fatalf("single node w = %g, want 3", data[0])
	}
}

// TestUnpredictableDetailsExcluded: unpredictable markers contribute zero
// to the load vector (the decompressor cannot know their detail value
// before reconstruction).
func TestUnpredictableDetailsExcluded(t *testing.T) {
	quant := quantizer.Linear{EB: 0.5, Radius: 1 << 8}
	sym := []int32{quant.CenterSym(), quantizer.Unpredictable, quant.CenterSym()}
	data := make([]float64, 3)
	applyCorrection(data, []int{3}, []int{1}, 1, quant, sym, +1)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("unpredictable detail leaked into correction at %d: %g", i, v)
		}
	}
}
