// Hot-path benchmarks: steady-state allocation counts (b.ReportAllocs)
// for compression, decompression and the interpolation engine, and worker
// scaling of the sharded entropy coder. The QP kernels are timed over real
// pass regions by internal/sz3's BenchmarkQPSweeps. These are for
// measuring while working; the repository benchmark (benchmark/) is the
// ledger.
package scdc_test

import (
	"fmt"
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

// BenchmarkHotPathCompress measures end-to-end Compress of a sharded
// stream at several worker counts. Allocations should be O(1) in field
// size at steady state: the working copy, index arrays, Huffman tables and
// flate state are pooled.
func BenchmarkHotPathCompress(b *testing.B) {
	data, dims := hotPathField()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := scdc.Options{Algorithm: scdc.SZ3, RelativeBound: 1e-4,
				QP: scdc.DefaultQP(), Workers: workers, Shards: 4}
			b.SetBytes(int64(len(data) * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scdc.Compress(data, dims, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotPathDecompress measures end-to-end DecompressParallel on a
// sharded stream at several worker counts.
func BenchmarkHotPathDecompress(b *testing.B) {
	data, dims := hotPathField()
	stream, err := scdc.Compress(data, dims, scdc.Options{Algorithm: scdc.SZ3,
		RelativeBound: 1e-4, QP: scdc.DefaultQP(), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scdc.DecompressParallel(stream, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// BenchmarkHotPathShardedHuffman isolates the sharded entropy coder.
func BenchmarkHotPathShardedHuffman(b *testing.B) {
	f := field(datagen.Miranda, 1)
	var tr sz3.Trace
	opts := sz3.DefaultOptions(1e-3)
	opts.Choice = sz3.ChoiceInterp
	opts.Trace = &tr
	if _, err := sz3.Compress(f, opts); err != nil {
		b.Fatal(err)
	}
	q := tr.Q
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d/encode", shards, workers), func(b *testing.B) {
				b.SetBytes(int64(len(q) * 4))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					huffman.EncodeSharded(q, shards, workers)
				}
			})
			enc := huffman.EncodeSharded(q, shards, workers)
			b.Run(fmt.Sprintf("shards=%d/workers=%d/decode", shards, workers), func(b *testing.B) {
				b.SetBytes(int64(len(q) * 4))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := huffman.DecodeParallel(enc, -1, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// stageSink keeps BenchmarkEntropyStage's results alive.
var stageSink any

// BenchmarkEntropyStage prices the Huffman stage per symbol on the QP
// index arrays of the bench.IndexCells (SZ3 Miranda ~1 bit/value, MGARD
// S3D ~10 bits/value): the histogram (entropy.Analyze), the encode from
// that Dist (code lengths, code tables, body) and the decode. The code
// lengths alone are timed by internal/huffman's BenchmarkCodeLengths on
// the same arrays.
func BenchmarkEntropyStage(b *testing.B) {
	for _, c := range bench.IndexCells {
		_, qp, err := c.Arrays()
		if err != nil {
			b.Fatal(err)
		}
		d := entropy.Analyze(qp)
		enc := huffman.EncodeDist(qp, d)
		stages := []struct {
			name string
			fn   func() (any, error)
		}{
			{"analyze", func() (any, error) { return entropy.Analyze(qp), nil }},
			{"encode", func() (any, error) { return huffman.EncodeDist(qp, d), nil }},
			{"decode", func() (any, error) { return huffman.Decode(enc) }},
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
