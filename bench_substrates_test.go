// Micro-benchmarks for the coding and transform substrates, documenting
// where the pipeline time goes (complementing the end-to-end Figures
// 16-17 benches).
package scdc_test

import (
	"math"
	"math/rand"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/lossless"
	"scdc/internal/transform"
)

// indexLike synthesizes a quantization-index-like symbol stream: a
// two-sided geometric distribution around the quantizer center.
func indexLike(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]int32, n)
	for i := range q {
		v := int32(0)
		for rng.Float64() < 0.55 && v < 40 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		q[i] = v + 1<<15
	}
	return q
}

func BenchmarkSubstrateHuffmanEncode(b *testing.B) {
	q := indexLike(1<<20, 1)
	b.SetBytes(int64(len(q) * 4))
	for i := 0; i < b.N; i++ {
		huffman.EncodeDist(q, entropy.Analyze(q))
	}
}

func BenchmarkSubstrateHuffmanDecode(b *testing.B) {
	q := indexLike(1<<20, 1)
	enc := huffman.EncodeDist(q, entropy.Analyze(q))
	b.SetBytes(int64(len(q) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateLossless(b *testing.B) {
	q := indexLike(1<<19, 2)
	src := huffman.EncodeDist(q, entropy.Analyze(q))
	for _, c := range []lossless.Codec{lossless.Flate, lossless.Huffman} {
		b.Run("codec="+c.String(), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			var enc []byte
			var err error
			for i := 0; i < b.N; i++ {
				enc, err = lossless.Compress(c, src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(src))/float64(len(enc)), "ratio")
		})
	}
}

func BenchmarkSubstrateWavelet(b *testing.B) {
	n := 1 << 20
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 37)
	}
	b.SetBytes(int64(n * 8))
	for i := 0; i < b.N; i++ {
		transform.FWT97(x)
		transform.IWT97(x)
	}
}

func BenchmarkSubstrateDCT(b *testing.B) {
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i) / 11)
	}
	b.SetBytes(int64(n * 8))
	for i := 0; i < b.N; i++ {
		c := transform.DCT2(x)
		x = transform.DCT3(c)
	}
}

func BenchmarkSubstrateFFT(b *testing.B) {
	n := 1 << 16
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Sin(float64(i) / 5)
	}
	b.SetBytes(int64(n * 16))
	for i := 0; i < b.N; i++ {
		if err := transform.FFT(re, im); err != nil {
			b.Fatal(err)
		}
		if err := transform.IFFT(re, im); err != nil {
			b.Fatal(err)
		}
	}
}
