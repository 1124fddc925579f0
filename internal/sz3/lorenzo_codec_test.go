package sz3

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/quantizer"
)

// TestLorenzoExactOnPairwise: 3D Lorenzo annihilates the triple mixed
// difference, so any f without a fully coupled xyz term is exact.
func TestLorenzoExactOnPairwise(t *testing.T) {
	f := func(x, y, z float64) float64 {
		return 1 + x + 2*y + 3*z + x*y + y*z + x*z
	}
	for x := 1.0; x < 4; x++ {
		for y := 1.0; y < 4; y++ {
			for z := 1.0; z < 4; z++ {
				p := lorenzo(
					f(x-1, y, z), f(x, y-1, z), f(x, y, z-1),
					f(x-1, y-1, z), f(x-1, y, z-1), f(x, y-1, z-1),
					f(x-1, y-1, z-1),
				)
				if math.Abs(p-f(x, y, z)) > 1e-9 {
					t.Fatalf("(%g,%g,%g): %g vs %g", x, y, z, p, f(x, y, z))
				}
			}
		}
	}
	// The fully coupled term is not captured: the residual of f = xyz on
	// a unit grid is its triple mixed difference, 1.
	g := func(x, y, z float64) float64 { return x * y * z }
	p := lorenzo(g(1, 2, 2), g(2, 1, 2), g(2, 2, 1), g(1, 1, 2), g(1, 2, 1), g(2, 1, 1), g(1, 1, 1))
	if g(2, 2, 2)-p != 1 {
		t.Fatalf("xyz residual = %g, want 1", g(2, 2, 2)-p)
	}
}

// TestQuickLorenzoLinearity property: Lorenzo prediction is linear in its
// inputs.
func TestQuickLorenzoLinearity(t *testing.T) {
	f := func(v [7]float64, s float64) bool {
		if anyBad(append(v[:], s)...) {
			return true
		}
		l := lorenzo(v[0]*s, v[1]*s, v[2]*s, v[3]*s, v[4]*s, v[5]*s, v[6]*s)
		r := s * lorenzo(v[0], v[1], v[2], v[3], v[4], v[5], v[6])
		scale := 0.0
		for _, x := range v {
			scale += math.Abs(x * s)
		}
		return math.Abs(l-r) <= 1e-9*(scale+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

// TestLorenzoScanExactOnPairwise: on an integer field with pairwise
// coupling only, at eb = 0.5 every reconstruction is exact, so every point
// off the first plane, row and column is predicted exactly and stores the
// center symbol, while the first point is predicted from zero padding.
func TestLorenzoScanExactOnPairwise(t *testing.T) {
	const n = 5
	f := grid.MustNew(n, n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				f.Set(float64(2+x+3*y-z+x*y+y*z), x, y, z)
			}
		}
	}
	quant := quantizer.Linear{EB: 0.5, Radius: quantizer.DefaultRadius}
	sw := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, f.Len()))
	compressLorenzo(sw, f.Dims(), quant)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				i := f.Index(x, y, z)
				if sw.Data[i] != f.Data[i] {
					t.Fatalf("(%d,%d,%d) reconstructs %g, want %g", x, y, z, sw.Data[i], f.Data[i])
				}
				if x > 0 && y > 0 && z > 0 && sw.Sym[i] != quant.CenterSym() {
					t.Fatalf("(%d,%d,%d): symbol %d, want center", x, y, z, sw.Sym[i])
				}
			}
		}
	}
	if got, want := quant.Centered(sw.Sym[0]), int32(f.Data[0]); got != want {
		t.Errorf("origin index %d, want %d (prediction 0)", got, want)
	}
}

// refCompressLorenzo is the per-point Lorenzo scan the row scan replaced:
// leading dims split into independent 3D blocks, and each neighbor is
// probed per point, reading zero outside the block.
func refCompressLorenzo(data []float64, dims []int, quant quantizer.Linear) (sym []int32, lits []float64) {
	var ext [4]int
	for i := range ext {
		ext[i] = 1
	}
	copy(ext[4-len(dims):], dims)
	blocks, nx, ny, nz := ext[0], ext[1], ext[2], ext[3]
	sym = make([]int32, len(data))
	bsz := nx * ny * nz
	for b := 0; b < blocks; b++ {
		blk := data[b*bsz : (b+1)*bsz]
		at := func(x, y, z int) float64 {
			if x < 0 || y < 0 || z < 0 {
				return 0
			}
			return blk[(x*ny+y)*nz+z]
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					p := at(i-1, j, k) + at(i, j-1, k) + at(i, j, k-1) -
						at(i-1, j-1, k) - at(i-1, j, k-1) - at(i, j-1, k-1) +
						at(i-1, j-1, k-1)
					idx := (i*ny+j)*nz + k
					s, dec, ok := quant.Quantize(blk[idx], p)
					sym[b*bsz+idx] = s
					if !ok {
						lits = append(lits, blk[idx])
					}
					blk[idx] = dec
				}
			}
		}
	}
	return sym, lits
}

// TestLorenzoScanMatchesReference: the row scan writes the per-point
// scan's symbols, literals and reconstruction bit for bit, at 1D to 4D
// and on fields with NaN, infinities and spikes; and the inverse scan
// reproduces the reconstruction from the symbols and literals.
func TestLorenzoScanMatchesReference(t *testing.T) {
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	for _, dims := range [][]int{{300}, {30, 31}, {9, 10, 11}, {3, 5, 6, 7}, {1, 1, 1}, {4, 1, 5, 6}, {2, 12, 16, 16}} {
		for _, hostile := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/hostile=%v", dims, hostile), func(t *testing.T) {
				f := synth(dims...)
				if hostile {
					for i := 7; i < f.Len(); i += 53 {
						f.Data[i] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e6, -3e300}[i%5]
					}
				}
				ref := append([]float64(nil), f.Data...)
				wantSym, wantLits := refCompressLorenzo(ref, dims, quant)

				sw := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, f.Len()))
				compressLorenzo(sw, dims, quant)
				if !sameBits(sw.Data, ref) || !sameBits(sw.Lits, wantLits) {
					t.Fatalf("reconstruction or literals differ from the reference scan (%d vs %d literals)", len(sw.Lits), len(wantLits))
				}
				for i := range wantSym {
					if sw.Sym[i] != wantSym[i] {
						t.Fatalf("symbol %d: %d, want %d", i, sw.Sym[i], wantSym[i])
					}
				}

				dec := core.NewSweep(make([]float64, f.Len()), append([]int32(nil), sw.Sym...))
				dec.Lits = sw.Lits
				if err := decompressLorenzo(dec, dims, quant); err != nil {
					t.Fatal(err)
				}
				if !sameBits(dec.Data, ref) {
					t.Fatal("inverse scan does not reproduce the reconstruction")
				}
			})
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
