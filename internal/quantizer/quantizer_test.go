package quantizer

import (
	"math"
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
