package quantizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicRoundTrip(t *testing.T) {
	z := Linear{EB: 1e-3, Radius: DefaultRadius}
	cases := []struct{ d, p float64 }{
		{1.0, 1.0}, {1.0, 0.999}, {0, 0.002}, {-5, -5.0005}, {3.14159, 3.14},
	}
	for _, c := range cases {
		sym, dec, ok := z.Quantize(c.d, c.p)
		if !ok {
			t.Fatalf("unexpectedly unpredictable: %+v", c)
		}
		if math.Abs(dec-c.d) > z.EB {
			t.Fatalf("bound violated: |%g-%g| > %g", dec, c.d, z.EB)
		}
		if got := z.Recover(c.p, sym); got != dec {
			t.Fatalf("recover mismatch: %g != %g", got, dec)
		}
	}
}

func TestUnpredictable(t *testing.T) {
	z := Linear{EB: 1e-6, Radius: 1 << 8}
	sym, dec, ok := z.Quantize(100, 0)
	if ok || sym != Unpredictable {
		t.Fatalf("expected unpredictable, got sym=%d ok=%v", sym, ok)
	}
	if dec != 100 {
		t.Fatalf("unpredictable must return the original value, got %g", dec)
	}
}

func TestNaNResidual(t *testing.T) {
	z := Linear{EB: 1e-3, Radius: 1 << 8}
	if _, _, ok := z.Quantize(math.NaN(), 0); ok {
		t.Fatal("NaN data must be unpredictable")
	}
	if _, _, ok := z.Quantize(1, math.Inf(1)); ok {
		t.Fatal("infinite prediction must be unpredictable")
	}
}

func TestCenterAndCentered(t *testing.T) {
	z := Linear{EB: 1e-3, Radius: 1 << 10}
	if z.CenterSym() != 1<<10 {
		t.Fatalf("center = %d", z.CenterSym())
	}
	sym, _, ok := z.Quantize(5.0, 5.0)
	if !ok || z.Centered(sym) != 0 {
		t.Fatalf("zero residual: sym=%d centered=%d", sym, z.Centered(sym))
	}
	sym, _, _ = z.Quantize(5.0+2*z.EB, 5.0)
	if z.Centered(sym) != 1 {
		t.Fatalf("one-step residual: centered=%d", z.Centered(sym))
	}
}

// TestBadConfig: Linear is a plain value, validated where the options are
// (core.Backend.Normalize rejects these). Built with an unusable bound or
// radius anyway, it never claims a reconstruction it cannot stand behind:
// the point comes back as a literal, or within the bound it was given.
// (An infinite bound is the one case only that validation stops: 0·Inf
// reconstructs NaN.)
func TestBadConfig(t *testing.T) {
	bad := []Linear{{EB: 0, Radius: 8}, {EB: -1, Radius: 8}, {EB: math.NaN(), Radius: 8}, {EB: 1e-3, Radius: 1}}
	for _, z := range bad {
		for _, c := range []struct{ d, p float64 }{{1, 1}, {1, 0.999}, {-5, 7}, {0, 1e-9}} {
			sym, dec, ok := z.Quantize(c.d, c.p)
			if !ok && (sym != Unpredictable || dec != c.d) {
				t.Errorf("%+v: literal for d=%g came back as symbol %d, value %g", z, c.d, sym, dec)
			}
			if ok && (sym == Unpredictable || !(math.Abs(dec-c.d) <= z.EB)) {
				t.Errorf("%+v: d=%g p=%g quantized to symbol %d, value %g outside the bound", z, c.d, c.p, sym, dec)
			}
		}
	}
}

// TestQuickErrorBound property: for any (d, p, eb) the quantizer either
// reports unpredictable or reconstructs within the bound, and Recover is
// the exact inverse.
func TestQuickErrorBound(t *testing.T) {
	z := Linear{EB: 1e-4, Radius: DefaultRadius}
	f := func(d, p float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) || math.IsNaN(p) || math.IsInf(p, 0) {
			return true
		}
		sym, dec, ok := z.Quantize(d, p)
		if !ok {
			return sym == Unpredictable && dec == d
		}
		if math.Abs(dec-d) > z.EB {
			return false
		}
		return z.Recover(p, sym) == dec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSymmetric property: quantizing the reconstruction against the
// same prediction is idempotent (residual already on the lattice).
func TestQuickSymmetric(t *testing.T) {
	z := Linear{EB: 1e-3, Radius: DefaultRadius}
	f := func(d, p float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) || math.IsNaN(p) || math.IsInf(p, 0) {
			return true
		}
		sym, dec, ok := z.Quantize(d, p)
		if !ok {
			return true
		}
		sym2, dec2, ok2 := z.Quantize(dec, p)
		return ok2 && sym2 == sym && dec2 == dec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundIndex holds RoundIndex to math.Round where the truncating form
// could go wrong: at every half-integer and its neighbours one ulp either
// side, at the largest double below ½, at −0, and at ±(Radius−½), the
// quantizer's gate, for radii 2, 2^15, 2^30 and MaxInt32.
func TestRoundIndex(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 0.49999999999999994, -0.49999999999999994, 1e-300, -1e-300}
	for k := -1000.0; k <= 1000; k++ {
		vals = append(vals, k, k+0.5)
	}
	for _, r := range []float64{2, 1 << 15, 1 << 30, math.MaxInt32} {
		vals = append(vals, r-0.5, -(r - 0.5), r-1, -(r - 1), r-1.5, -(r - 1.5))
	}
	for _, v := range vals {
		for _, x := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			if !(math.Abs(x) < math.MaxInt32) {
				continue
			}
			if got, want := RoundIndex(x), int32(math.Round(x)); got != want {
				t.Errorf("RoundIndex(%v) = %d, math.Round gives %d", x, got, want)
			}
		}
	}
}

// refQuantize is Quantize as it was written before the branch-free round:
// two range gates around math.Round.
func refQuantize(z Linear, d, p float64) (int32, float64, bool) {
	qf := (d - p) / (2 * z.EB)
	if qf >= float64(z.Radius) || qf <= -float64(z.Radius) || math.IsNaN(qf) {
		return Unpredictable, d, false
	}
	q := int32(math.Round(qf))
	if q >= z.Radius || q <= -z.Radius {
		return Unpredictable, d, false
	}
	dec := p + 2*float64(q)*z.EB
	if math.Abs(dec-d) > z.EB {
		return Unpredictable, d, false
	}
	return q + z.Radius, dec, true
}

// TestQuantizeMatchesReference holds Quantize and QuantizeRun to the
// math.Round reference bit for bit on random residuals spread over the
// whole range, at four radii: the same symbol, the same reconstruction,
// and the run's literals in run order.
func TestQuantizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, z := range []Linear{{1e-3, 2}, {1e-3, DefaultRadius}, {0.25, 1 << 30}, {1e-6, math.MaxInt32}} {
		const n = 5000
		pred, data, want := make([]float64, n), make([]float64, 2*n), make([]float64, 0, n)
		for i := range pred {
			pred[i] = rng.NormFloat64()
			// Residuals up to 1.2 radii, with a third snapped to half bins.
			x := (2*rng.Float64() - 1) * 1.2 * float64(z.Radius)
			if i%3 == 0 {
				x = math.Floor(x) + 0.5
			}
			data[2*i] = pred[i] + x*2*z.EB
		}
		orig := append([]float64(nil), data...)
		sym := make([]int32, len(data))
		lits := z.QuantizeRun(pred, data, sym, 0, 2, nil)
		for i, p := range pred {
			d := orig[2*i]
			symR, decR, okR := refQuantize(z, d, p)
			if !okR {
				want = append(want, d)
			}
			if sym[2*i] != symR || math.Float64bits(data[2*i]) != math.Float64bits(decR) {
				t.Fatalf("%+v d=%v p=%v: QuantizeRun (%d, %v), reference (%d, %v)", z, d, p, sym[2*i], data[2*i], symR, decR)
			}
			if s, dec, ok := z.Quantize(d, p); s != symR || ok != okR || math.Float64bits(dec) != math.Float64bits(decR) {
				t.Fatalf("%+v d=%v p=%v: Quantize (%d, %v, %v), reference (%d, %v, %v)", z, d, p, s, dec, ok, symR, decR, okR)
			}
			if data[2*i+1] != orig[2*i+1] {
				t.Fatalf("%+v: QuantizeRun wrote between its strided points at %d", z, 2*i+1)
			}
		}
		if len(lits) != len(want) {
			t.Fatalf("%+v: %d literals, reference %d", z, len(lits), len(want))
		}
		for i := range want {
			if math.Float64bits(lits[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: literal %d is %v, reference %v", z, i, lits[i], want[i])
			}
		}
	}
}
