// Package quantizer implements the linear-scaling quantizer shared by the
// prediction- and interpolation-based compressors (paper Section IV-A):
//
//	q = round((d - p) / (2*eb))
//	d' = p + 2*q*eb, guaranteeing |d - d'| <= eb.
//
// Indices are offset by Radius so that the stored symbol is non-negative
// and symbol 0 is reserved for "unpredictable" points whose residual
// exceeds the quantization range; those are stored verbatim in a literal
// stream, exactly as SZ3 does.
package quantizer

import (
	"math"
)

// Unpredictable is the reserved stored symbol for out-of-range points.
const Unpredictable int32 = 0

// DefaultRadius is the default quantization radius (SZ3 uses 2^15).
const DefaultRadius int32 = 1 << 15

// Linear is a linear-scaling quantizer with error bound EB and radius R.
// Stored symbols lie in [0, 2R): 0 = unpredictable, otherwise symbol =
// q + R with q in (-R, R). EB must be positive and finite and Radius at
// least 2; the engines check both through core.Backend.Normalize.
type Linear struct {
	EB     float64
	Radius int32
}

// Quantize quantizes data value d against prediction p. It returns the
// stored symbol, the decompressed value, and ok=false when the point is
// unpredictable (symbol==Unpredictable, decompressed value == d exactly:
// callers must record d in the literal stream).
func (z Linear) Quantize(d, p float64) (sym int32, dec float64, ok bool) {
	diff := d - p
	qf := diff / (2 * z.EB)
	if qf >= float64(z.Radius) || qf <= -float64(z.Radius) || math.IsNaN(qf) {
		return Unpredictable, d, false
	}
	q := int32(math.Round(qf))
	if q >= z.Radius || q <= -z.Radius {
		return Unpredictable, d, false
	}
	dec = p + 2*float64(q)*z.EB
	// Guard against floating-point rounding pushing the reconstruction
	// outside the bound (can happen when |p| >> |d|); fall back to literal.
	if math.Abs(dec-d) > z.EB {
		return Unpredictable, d, false
	}
	return q + z.Radius, dec, true
}

// Recover reconstructs the decompressed value from a stored symbol and the
// prediction. Unpredictable symbols must be handled by the caller (literal
// stream) before calling Recover.
//
//scdc:inline
func (z Linear) Recover(p float64, sym int32) float64 {
	q := sym - z.Radius
	return p + 2*float64(q)*z.EB
}

// CenterSym returns the symbol representing a zero residual.
func (z Linear) CenterSym() int32 { return z.Radius }

// Centered converts a stored symbol to the signed quantization index q
// (the value visualized and predicted by the paper's QP method). The
// Unpredictable symbol has no signed counterpart; callers must test for it
// first.
func (z Linear) Centered(sym int32) int32 { return sym - z.Radius }
