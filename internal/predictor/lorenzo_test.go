package predictor

import (
	"math"
	"testing"
	"testing/quick"
)

// TestLorenzo2DExactOnSeparable: the 2D Lorenzo residual is the mixed
// second difference, so prediction is exact for any f = g(x) + h(y)
// (Ibarria et al.).
func TestLorenzo2DExactOnSeparable(t *testing.T) {
	f := func(x, y float64) float64 { return 3 + 2*x*x - math.Sin(y) }
	for x := 1.0; x < 5; x++ {
		for y := 1.0; y < 5; y++ {
			p := Lorenzo2D(f(x-1, y), f(x, y-1), f(x-1, y-1))
			if math.Abs(p-f(x, y)) > 1e-12 {
				t.Fatalf("(%g,%g): %g vs %g", x, y, p, f(x, y))
			}
		}
	}
	// The fully coupled xy term is NOT captured: the residual equals the
	// mixed difference, 1 for f = xy on a unit grid.
	g := func(x, y float64) float64 { return x * y }
	p := Lorenzo2D(g(1, 2), g(2, 1), g(1, 1))
	if g(2, 2)-p != 1 {
		t.Fatalf("xy residual = %g, want 1", g(2, 2)-p)
	}
}

// TestLorenzo3DExactOnPairwise: 3D Lorenzo annihilates the triple mixed
// difference, so any f without a fully coupled xyz term is exact.
func TestLorenzo3DExactOnPairwise(t *testing.T) {
	f := func(x, y, z float64) float64 {
		return 1 + x + 2*y + 3*z + x*y + y*z + x*z
	}
	for x := 1.0; x < 4; x++ {
		for y := 1.0; y < 4; y++ {
			for z := 1.0; z < 4; z++ {
				p := Lorenzo3D(
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
}

func TestField3Predict(t *testing.T) {
	// A pairwise-coupled field over a 4x4x4 cube: interior predictions are
	// exact (no xyz term).
	f := Field3{Data: make([]float64, 64), Nx: 4, Ny: 4, Nz: 4}
	val := func(x, y, z int) float64 {
		return 2 + float64(x) + 3*float64(y) - float64(z) + float64(x*y+y*z)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				f.Data[(x*4+y)*4+z] = val(x, y, z)
			}
		}
	}
	for x := 1; x < 4; x++ {
		for y := 1; y < 4; y++ {
			for z := 1; z < 4; z++ {
				p := f.Predict(x, y, z)
				if math.Abs(p-val(x, y, z)) > 1e-12 {
					t.Fatalf("(%d,%d,%d): %g vs %g", x, y, z, p, val(x, y, z))
				}
			}
		}
	}
	// Border reads are zero-padded, not out-of-range.
	_ = f.Predict(0, 0, 0)
}

// TestQuickLorenzoLinearity property: Lorenzo prediction is linear in its
// inputs.
func TestQuickLorenzoLinearity(t *testing.T) {
	f := func(a, b, ab, s float64) bool {
		if anyBad(a, b, ab, s) {
			return true
		}
		l := Lorenzo2D(a*s, b*s, ab*s)
		r := s * Lorenzo2D(a, b, ab)
		return math.Abs(l-r) <= 1e-9*(math.Abs(l)+math.Abs(r)+1)
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
