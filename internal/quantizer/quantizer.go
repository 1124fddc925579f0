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
//
// One gate, |qf| < Radius−½, admits exactly the residuals that lie inside
// the range and round to an index inside (−Radius, Radius): Radius−½ is
// exact in float64, and math.Round takes every qf at or beyond it to
// ±Radius or further. So RoundIndex only ever sees |qf| < MaxInt32, and a
// NaN residual fails both comparisons.
//
// Quantize is the per-point form, for the Lorenzo scan, whose every
// prediction reads the point before. The interpolation sweeps predict a
// run first and call QuantizeRun, which runs this body in its loop: the
// body is over Go's inlining budget, so a call per point would cost more
// than the quantize step itself (BenchmarkQuantize). Both are pinned to a
// math.Round reference (TestQuantizeMatchesReference).
func (z Linear) Quantize(d, p float64) (sym int32, dec float64, ok bool) {
	qf := (d - p) / (2 * z.EB)
	if lim := float64(z.Radius) - 0.5; qf < lim && qf > -lim {
		q := RoundIndex(qf)
		dec = p + 2*float64(q)*z.EB
		// Guard against floating-point rounding pushing the reconstruction
		// outside the bound (can happen when |p| >> |d|); fall back to literal.
		if math.Abs(dec-d) <= z.EB {
			return q + z.Radius, dec, true
		}
	}
	return Unpredictable, d, false
}

// QuantizeRun quantizes the run of points o, o+step, ... of data against
// the predictions pred[0], pred[1], ...: point i is exactly
// Quantize(data[o+i*step], pred[i]). It writes each point's symbol to sym
// and its reconstruction to data — an unpredictable point keeps its
// original value — and appends the original value of each unpredictable
// point to lits, in run order. Every prediction is taken before the call,
// so no point of a run may predict from another.
//
//scdc:noalloc
func (z Linear) QuantizeRun(pred, data []float64, sym []int32, o, step int, lits []float64) []float64 {
	eb2, lim := 2*z.EB, float64(z.Radius)-0.5
	for _, p := range pred {
		d := data[o]
		if qf := (d - p) / eb2; qf < lim && qf > -lim {
			q := RoundIndex(qf)
			if dec := p + 2*float64(q)*z.EB; math.Abs(dec-d) <= z.EB {
				sym[o], data[o] = q+z.Radius, dec
				o += step
				continue
			}
		}
		sym[o] = Unpredictable
		lits = append(lits, d)
		o += step
	}
	return lits
}

// RoundIndex returns int32(math.Round(qf)) — nearest, halves away from zero
// — for |qf| < MaxInt32, without math.Round's data-dependent branches: the
// conversion truncates toward zero, and the two tests on the remainder
// compile to conditional moves. The remainder f = qf − trunc(qf) is exact:
// it is a multiple of qf's ulp and smaller than 1 in magnitude, and below
// 2^52 every such value is a float64. So f >= 0.5 is exactly the test
// math.Round makes. For NaN and beyond ±MaxInt32 the conversion is
// implementation-defined: callers gate qf first.
//
//scdc:inline
func RoundIndex(qf float64) int32 {
	q := int32(qf)
	f := qf - float64(q)
	if f >= 0.5 {
		q++
	}
	if f <= -0.5 {
		q--
	}
	return q
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
