package quantizer

import (
	"math"
	"testing"
)

// FuzzQuantizerRecover: for arbitrary (data, prediction, bound, radius),
// Quantize/Recover must uphold the three contracts everything above them
// relies on: a predictable symbol recovers bit-exactly to the value
// Quantize reported, that value is within the bound of the input, and the
// unpredictable marker is never aliased by a predictable symbol.
func FuzzQuantizerRecover(f *testing.F) {
	f.Add(1.5, 1.0, 1e-3, int32(1<<15))
	f.Add(-2.75, 3.5, 1e-6, int32(2))
	f.Add(0.0, 0.0, 1e-9, int32(512))
	f.Add(math.Inf(1), 0.0, 1e-3, int32(1<<15))
	f.Add(math.NaN(), 1.0, 1e-3, int32(16))
	f.Add(1e300, -1e300, 1e-12, int32(1<<15))
	f.Fuzz(func(t *testing.T, d, p, eb float64, radius int32) {
		if !(eb > 0) || math.IsInf(eb, 0) || radius < 2 {
			return // what core.Backend.Normalize rejects
		}
		z := Linear{EB: eb, Radius: radius}
		sym, dec, ok := z.Quantize(d, p)
		if !ok {
			if sym != Unpredictable {
				t.Fatalf("unpredictable point got symbol %d", sym)
			}
			// The literal path stores d itself.
			if dec != d && !(math.IsNaN(dec) && math.IsNaN(d)) {
				t.Fatalf("unpredictable dec %g, want input %g", dec, d)
			}
			return
		}
		if sym == Unpredictable {
			t.Fatalf("predictable point aliased the unpredictable marker (d=%g p=%g eb=%g r=%d)",
				d, p, eb, radius)
		}
		if sym < 0 || sym >= 2*radius {
			t.Fatalf("symbol %d outside [0, %d)", sym, 2*radius)
		}
		if math.Abs(dec-d) > eb {
			t.Fatalf("bound violated: |%g-%g| > %g", dec, d, eb)
		}
		if rec := z.Recover(p, sym); rec != dec {
			t.Fatalf("Recover(%g, %d) = %g, want %g (not bit-exact)", p, sym, rec, dec)
		}
		if z.Centered(sym) != sym-radius {
			t.Fatalf("Centered(%d) = %d", sym, z.Centered(sym))
		}
	})
}
