// Hot-path benchmarks: steady-state allocation counts (b.ReportAllocs)
// for compression, decompression, the interpolation engine and the QP
// kernels, and worker scaling of the sharded entropy coder. They are for
// measuring while working; the repository benchmark (benchmark/) is the
// ledger.
package scdc_test

import (
	"fmt"
	"testing"

	"scdc"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/qoz"
	"scdc/internal/quantizer"
	"scdc/internal/rice"
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

// BenchmarkEntropyCoders prices the index coders on the real Miranda
// quantization indices: single-body Huffman, the one encoder, against the
// Golomb-Rice baseline, encode/decode throughput side by side (rice
// encode is timed without its histogram pass; the sharded Huffman
// variants live in BenchmarkHotPathShardedHuffman).
func BenchmarkEntropyCoders(b *testing.B) {
	f := field(datagen.Miranda, 1)
	var tr sz3.Trace
	opts := sz3.DefaultOptions(1e-3)
	opts.Choice = sz3.ChoiceInterp
	opts.Trace = &tr
	if _, err := sz3.Compress(f, opts); err != nil {
		b.Fatal(err)
	}
	q := tr.Q
	size := int64(len(q) * 4)

	b.Run("huffman/encode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			huffman.Encode(q)
		}
	})
	huffEnc := huffman.Encode(q)
	b.Run("huffman/decode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.Decode(huffEnc); err != nil {
				b.Fatal(err)
			}
		}
	})
	d := entropy.Analyze(q)
	b.Run("rice/encode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rice.EncodeDist(q, d)
		}
	})
	riceEnc := rice.EncodeDist(q, d)
	b.Run("rice/decode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rice.Decode(riceEnc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQPKernels isolates the QP stage on a Miranda-sized symbol
// array (paper default Mode2D/Case III): the per-point Compensate
// reference against the specialized region kernels, forward and inverse.
func BenchmarkQPKernels(b *testing.B) {
	f := field(datagen.Miranda, 1)
	var tr sz3.Trace
	opts := sz3.DefaultOptions(1e-3)
	opts.Choice = sz3.ChoiceInterp
	opts.Trace = &tr
	if _, err := sz3.Compress(f, opts); err != nil {
		b.Fatal(err)
	}
	q := tr.Q
	dims := f.Dims()
	rg := core.Region{
		Ext:  [4]int{1, dims[0], dims[1], dims[2]},
		Strd: [4]int{0, dims[1] * dims[2], dims[2], 1},
		Left: 3, Top: 2, Back: 1,
		Level: 1,
	}
	newPred := func(b *testing.B) *core.Predictor {
		p, err := core.NewPredictor(core.Default(), quantizer.DefaultRadius)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}

	b.Run("forward/ref", func(b *testing.B) {
		p := newPred(b)
		qp := make([]int32, len(q))
		b.SetBytes(int64(len(q) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ForwardRegionRef(q, qp, rg)
		}
	})
	b.Run("forward/kernel", func(b *testing.B) {
		p := newPred(b)
		qp := make([]int32, len(q))
		b.SetBytes(int64(len(q) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ForwardRegion(q, qp, rg)
		}
	})

	p := newPred(b)
	qp := make([]int32, len(q))
	p.ForwardRegion(q, qp, rg)
	b.Run("inverse/ref", func(b *testing.B) {
		p := newPred(b)
		enc := make([]int32, len(q))
		b.SetBytes(int64(len(q) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(enc, qp)
			p.InverseRegionRef(enc, rg)
		}
	})
	b.Run("inverse/kernel", func(b *testing.B) {
		p := newPred(b)
		enc := make([]int32, len(q))
		b.SetBytes(int64(len(q) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(enc, qp)
			p.InverseRegion(enc, rg)
		}
	})
}
