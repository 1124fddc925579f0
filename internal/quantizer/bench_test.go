package quantizer

import (
	"math/rand"
	"testing"
)

// BenchmarkQuantize times the quantize step alone, in ns/point, per point
// (Quantize in a loop, the Lorenzo form) and per run (QuantizeRun over the
// whole array, the form of the interpolation sweeps). The residuals are
// normal with a standard deviation of 0.75 bins, so about half the indices
// are 0 and the rest mostly ±1: the index mix of a smooth field at a tight
// bound, where a rounding branch on |q| < 1 or on the remainder
// mispredicts. Both rows restore the data array each iteration, on the
// clock, because a run quantizes it in place.
func BenchmarkQuantize(b *testing.B) {
	const n = 4096
	z := Linear{EB: 1e-3, Radius: DefaultRadius}
	rng := rand.New(rand.NewSource(1))
	orig, pred := make([]float64, n), make([]float64, n)
	for i := range orig {
		pred[i] = rng.Float64()
		orig[i] = pred[i] + 0.75*2*z.EB*rng.NormFloat64()
	}
	data, sym, lits := make([]float64, n), make([]int32, n), make([]float64, 0, n)
	perPoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
	}
	b.Run("point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(data, orig)
			lits = lits[:0]
			for j, p := range pred {
				s, dec, ok := z.Quantize(data[j], p)
				if !ok {
					lits = append(lits, data[j])
				}
				sym[j], data[j] = s, dec
			}
		}
		perPoint(b)
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(data, orig)
			lits = z.QuantizeRun(pred, data, sym, 0, 1, lits[:0])
		}
		perPoint(b)
	})
}
