// Hot-path benchmarks: steady-state allocation counts (b.ReportAllocs)
// for compression, decompression and the interpolation engine. The QP
// kernels are timed over real pass regions by internal/sz3's
// BenchmarkQPSweeps. These are for measuring while working; the
// repository benchmark (benchmark/) is the ledger.
package scdc_test

import (
	"bytes"
	"testing"

	"scdc"

	"scdc/internal/bench"
	"scdc/internal/datagen"
	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
)

func hotPathField() ([]float64, []int) {
	f := field(datagen.Miranda, 1)
	return f.Data, f.Dims()
}

// BenchmarkHotPathCompress measures end-to-end Compress of an SZ3+QP
// stream. Allocations should be O(1) in field size at steady state: the
// working copy, index arrays, Huffman tables and flate state are pooled.
func BenchmarkHotPathCompress(b *testing.B) {
	data, dims := hotPathField()
	opts := scdc.Options{Algorithm: scdc.SZ3, RelativeBound: 1e-4,
		QP: scdc.DefaultQP()}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scdc.Compress(data, dims, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathDecompress measures end-to-end Decompress of an SZ3+QP
// stream.
func BenchmarkHotPathDecompress(b *testing.B) {
	data, dims := hotPathField()
	stream, err := scdc.Compress(data, dims, scdc.Options{Algorithm: scdc.SZ3,
		RelativeBound: 1e-4, QP: scdc.DefaultQP()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scdc.Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathInterpPass isolates the interpolation + quantization
// engine (no entropy coding, no lossless wrapper) at the sz3 layer.
func BenchmarkHotPathInterpPass(b *testing.B) {
	f := field(datagen.Miranda, 1)
	opts := sz3.DefaultOptions(1e-3)
	opts.Choice = sz3.ChoiceInterp
	b.SetBytes(int64(f.Len() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz3.Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathQoZPlan isolates the QoZ auto-tuner (per-level sampled
// kind/order scoring plus the four level-bound trial compressions) from
// the pipeline it configures, on the field of the repository benchmark's
// qoz_tuned workload. Its cost is set by the samples it scores, not by
// the field, and its scratch is reused across candidates.
func BenchmarkHotPathQoZPlan(b *testing.B) {
	f := datagen.MustGenerate(datagen.SegSalt, 1, []int{96, 96, 80}, 1)
	opts := qoz.DefaultOptions(1e-3 * f.Range())
	b.SetBytes(int64(f.Len() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qoz.Plan(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// stageSink keeps BenchmarkEntropyStage's results alive.
var stageSink any

// BenchmarkEntropyStage prices the Huffman stage per symbol on the QP
// index arrays of the bench.IndexCells (SZ3 Miranda ~1 bit/value, HPEZ
// SCALE ~3, MGARD S3D ~10): the histogram (entropy.Analyze), the encode
// from that Dist (code lengths, code tables, body) and the decode. encode
// and decode write and read the layout EncodeDist picks — run-coded on
// the SZ3 array, plain on the others, so each decode row times one kernel
// (expandFast, decodeMulti, decodeSingle) — and, where that is not the
// plain layout, encode_plain and decode_plain time the plain one next to
// it.
// The code lengths alone are timed by internal/huffman's
// BenchmarkCodeLengths on the same arrays.
func BenchmarkEntropyStage(b *testing.B) {
	for _, c := range bench.IndexCells {
		_, qp, err := c.Arrays()
		if err != nil {
			b.Fatal(err)
		}
		d := entropy.Analyze(qp)
		enc, plain := huffman.EncodeDist(qp, d), huffman.EncodePlain(qp, d)
		type stage struct {
			name string
			fn   func() (any, error)
		}
		stages := []stage{
			{"analyze", func() (any, error) { return entropy.Analyze(qp), nil }},
			{"encode", func() (any, error) { return huffman.EncodeDist(qp, d), nil }},
			{"decode", func() (any, error) { return huffman.Decode(enc) }},
		}
		if !bytes.Equal(enc, plain) {
			stages = append(stages,
				stage{"encode_plain", func() (any, error) { return huffman.EncodePlain(qp, d), nil }},
				stage{"decode_plain", func() (any, error) { return huffman.Decode(plain) }})
		}
		for _, st := range stages {
			b.Run(c.Name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := st.fn()
					if err != nil {
						b.Fatal(err)
					}
					stageSink = out
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qp)), "ns/symbol")
			})
		}
	}
}
