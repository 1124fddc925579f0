package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelsKnown(t *testing.T) {
	if Mid2(2, 4) != 3 {
		t.Error("Mid2")
	}
	// Cubic kernel reproduces x^3 at the midpoint: samples at -3,-1,1,3.
	if got := Cubic4(-27, -1, 1, 27); got != 0 {
		t.Errorf("Cubic4 odd = %g", got)
	}
	// And x^2: samples 9,1,1,9 -> 0^2 = 0? midpoint of -3..3 grid at 0.
	if got := Cubic4(9, 1, 1, 9); got != 0 {
		t.Errorf("Cubic4 even = %g", got)
	}
}

// lineOf builds an accessor over precomputed samples f(i) for i in [0,n).
func lineOf(n int, f func(x float64) float64) func(int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(float64(i))
	}
	return func(i int) float64 { return v[i] }
}

// TestLinearExactOnAffine: the linear kernel is exact for affine signals
// at interior points.
func TestLinearExactOnAffine(t *testing.T) {
	at := lineOf(33, func(x float64) float64 { return 3*x - 7 })
	for _, s := range []int{1, 2, 4, 8} {
		for tpos := s; tpos+s < 33; tpos += 2 * s {
			got := Line(at, 33, tpos, s, Linear)
			want := 3*float64(tpos) - 7
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("s=%d t=%d: %g != %g", s, tpos, got, want)
			}
		}
	}
}

// TestCubicExactOnCubics: the cubic kernel is exact for cubic polynomials
// at full-stencil interior points.
func TestCubicExactOnCubics(t *testing.T) {
	at := lineOf(65, func(x float64) float64 { return 0.5*x*x*x - x*x + 2*x - 1 })
	for _, s := range []int{1, 2, 4} {
		for tpos := 3 * s; tpos+3*s < 65; tpos += 2 * s {
			got := Line(at, 65, tpos, s, Cubic)
			x := float64(tpos)
			want := 0.5*x*x*x - x*x + 2*x - 1
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("s=%d t=%d: %g != %g", s, tpos, got, want)
			}
		}
	}
}

// TestCubicBeatsLinearOnSmooth: on a sine the cubic kernel should have
// smaller residuals at interior points.
func TestCubicBeatsLinearOnSmooth(t *testing.T) {
	at := lineOf(128, func(x float64) float64 { return math.Sin(x / 7) })
	var errL, errC float64
	for tpos := 3; tpos+3 < 128; tpos += 2 {
		want := math.Sin(float64(tpos) / 7)
		errL += math.Abs(Line(at, 128, tpos, 1, Linear) - want)
		errC += math.Abs(Line(at, 128, tpos, 1, Cubic) - want)
	}
	if errC >= errL {
		t.Fatalf("cubic (%g) not better than linear (%g)", errC, errL)
	}
}

func TestBoundaryFallbacks(t *testing.T) {
	at := lineOf(8, func(x float64) float64 { return x })
	// t=7, s=1, n=8: right neighbor missing -> extrapolation from 4, 6.
	if got := Line(at, 8, 7, 1, Linear); got != 7 {
		t.Fatalf("extrapolation = %g", got)
	}
	// Tiny line: t=1, s=1, n=2: only left neighbor.
	at2 := lineOf(2, func(x float64) float64 { return 5 })
	if got := Line(at2, 2, 1, 1, Linear); got != 5 {
		t.Fatalf("copy fallback = %g", got)
	}
	// Cubic near the left edge degrades to quad/linear without panicking.
	if got := Line(at, 8, 1, 1, Cubic); math.Abs(got-1) > 1e-12 {
		t.Fatalf("left-edge cubic = %g", got)
	}
}

func TestKindString(t *testing.T) {
	if Linear.String() != "linear" || Cubic.String() != "cubic" {
		t.Error("kind names")
	}
}

// TestQuickLineWithinHull property: for any samples, the linear prediction
// at an interior point lies within the hull of its two neighbors.
func TestQuickLineWithinHull(t *testing.T) {
	f := func(vals [16]float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		at := func(i int) float64 { return vals[i] }
		for tpos := 1; tpos < 15; tpos += 2 {
			p := Line(at, 16, tpos, 1, Linear)
			lo := math.Min(vals[tpos-1], vals[tpos+1])
			hi := math.Max(vals[tpos-1], vals[tpos+1])
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearCubicMatchesLineSlice: the two-kind visit returns LineSlice's
// predictions bit for bit at every position of every boundary case, on
// strided lines of random and non-finite data.
func TestLinearCubicMatchesLineSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	data[77], data[78], data[300] = math.NaN(), math.Inf(1), math.Inf(-1)
	for n := 2; n <= 40; n++ {
		for _, strd := range []int{1, 3} {
			for s := 1; s < n; s *= 2 {
				for base := 0; base < 90; base += 13 {
					for tt := s; tt < n; tt += 2 * s {
						lin, cub := LinearCubic(data, base, strd, n, tt, s)
						wl := LineSlice(data, base, strd, n, tt, s, Linear)
						wc := LineSlice(data, base, strd, n, tt, s, Cubic)
						if math.Float64bits(lin) != math.Float64bits(wl) || math.Float64bits(cub) != math.Float64bits(wc) {
							t.Fatalf("n=%d strd=%d s=%d base=%d t=%d: (%v, %v), LineSlice (%v, %v)", n, strd, s, base, tt, lin, cub, wl, wc)
						}
					}
				}
			}
		}
	}
}
