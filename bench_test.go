// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section VI), plus ablation benches for the design
// choices called out in DESIGN.md. Each sub-benchmark reports the
// experiment's headline metrics (cr, psnr, bitrate, ...) via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the numbers
// behind every table/figure. The cmd/ drivers run the same experiments at
// full reduced-dataset scale with richer output; benches use smaller
// fields to keep a full sweep tractable on one core.
package scdc_test

import (
	"fmt"
	"sync"
	"testing"

	"scdc"

	"scdc/internal/bench"
	"scdc/internal/charz"
	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/lossless"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
	"scdc/internal/transfer"
)

// benchDims are reduced geometries (~200k points) per dataset.
var benchDims = map[datagen.Dataset][]int{
	datagen.Miranda:   {48, 64, 64},
	datagen.Hurricane: {32, 80, 80},
	datagen.SegSalt:   {80, 80, 56},
	datagen.Scale:     {32, 96, 96},
	datagen.S3D:       {64, 64, 64},
	datagen.CESM:      {26, 96, 192},
	datagen.RTM:       {64, 64, 40},
}

var (
	benchCache     *bench.FieldCache
	benchCacheOnce sync.Once
)

func cache() *bench.FieldCache {
	benchCacheOnce.Do(func() { benchCache = bench.NewFieldCache() })
	return benchCache
}

func field(ds datagen.Dataset, idx int) *grid.Field {
	return cache().Get(ds, idx, benchDims[ds], 1)
}

// benchRD runs the rate-distortion sweep of one figure: every base
// algorithm with and without QP at two error bounds.
func benchRD(b *testing.B, ds datagen.Dataset) {
	for _, alg := range bench.BaseAlgorithms {
		for _, qp := range []bool{false, true} {
			for _, rel := range []float64{1e-3, 1e-4} {
				name := fmt.Sprintf("alg=%v/qp=%v/rel=%g", alg, qp, rel)
				b.Run(name, func(b *testing.B) {
					f := field(ds, 1)
					b.SetBytes(int64(f.Len() * 8))
					var pt bench.Point
					var err error
					for i := 0; i < b.N; i++ {
						pt, err = bench.Run(f, ds, 1, alg, qp, rel)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(pt.CR, "cr")
					b.ReportMetric(pt.PSNR, "psnr")
					b.ReportMetric(pt.BitRate, "bits/sample")
				})
			}
		}
	}
}

// Figures 10-15: rate-distortion per dataset.

func BenchmarkFig10RateDistortionMiranda(b *testing.B)   { benchRD(b, datagen.Miranda) }
func BenchmarkFig11RateDistortionSegSalt(b *testing.B)   { benchRD(b, datagen.SegSalt) }
func BenchmarkFig12RateDistortionScale(b *testing.B)     { benchRD(b, datagen.Scale) }
func BenchmarkFig13RateDistortionCESM(b *testing.B)      { benchRD(b, datagen.CESM) }
func BenchmarkFig14RateDistortionS3D(b *testing.B)       { benchRD(b, datagen.S3D) }
func BenchmarkFig15RateDistortionHurricane(b *testing.B) { benchRD(b, datagen.Hurricane) }

// BenchmarkTableII aligns the four bases at PSNR ~= 75 on the SegSalt
// pressure field and reports base and QP compression ratios.
func BenchmarkTableII(b *testing.B) {
	for _, alg := range bench.BaseAlgorithms {
		b.Run("alg="+alg.String(), func(b *testing.B) {
			var base, qp bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				base, err = bench.SearchPSNR(cache(), datagen.SegSalt, 1, benchDims[datagen.SegSalt], 1, alg, false, 75, 0.75)
				if err != nil {
					b.Fatal(err)
				}
				f := field(datagen.SegSalt, 1)
				qp, err = bench.Run(f, datagen.SegSalt, 1, alg, true, base.RelEB)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(base.PSNR, "psnr")
			b.ReportMetric(base.CR, "cr_base")
			b.ReportMetric(qp.CR, "cr_qp")
		})
	}
}

// BenchmarkTableIV compares QP-integrated bases against the transform
// comparators at rel eb 1e-3 and 1e-5 on Miranda and SegSalt.
func BenchmarkTableIV(b *testing.B) {
	algs := append(append([]scdc.Algorithm{}, bench.BaseAlgorithms...), bench.Comparators...)
	for _, ds := range []datagen.Dataset{datagen.Miranda, datagen.SegSalt} {
		for _, alg := range algs {
			qpModes := []bool{false}
			if alg.SupportsQP() {
				qpModes = []bool{false, true}
			}
			for _, qp := range qpModes {
				for _, rel := range []float64{1e-3, 1e-5} {
					name := fmt.Sprintf("ds=%v/alg=%v/qp=%v/rel=%g", ds, alg, qp, rel)
					b.Run(name, func(b *testing.B) {
						f := field(ds, 1)
						b.SetBytes(int64(f.Len() * 8))
						var pt bench.Point
						var err error
						for i := 0; i < b.N; i++ {
							pt, err = bench.Run(f, ds, 1, alg, qp, rel)
							if err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(pt.CR, "cr")
						b.ReportMetric(pt.PSNR, "psnr")
						b.ReportMetric(pt.CompMBps, "Sc_MB/s")
						b.ReportMetric(pt.DecMBps, "Sd_MB/s")
					})
				}
			}
		}
	}
}

// BenchmarkFig4SliceEntropy characterizes per-slice index entropy over
// the three planes (SegSalt, SZ3, stride 2).
func BenchmarkFig4SliceEntropy(b *testing.B) {
	f := field(datagen.SegSalt, 1)
	eb := f.Range() * 3e-4
	tr := &sz3.Trace{}
	opts := sz3.DefaultOptions(eb)
	opts.Choice = sz3.ChoiceInterp
	opts.Trace = tr
	if _, err := sz3.Compress(f, opts); err != nil {
		b.Fatal(err)
	}
	q := charz.Centered(tr.Q, quantizer.DefaultRadius)
	b.ResetTimer()
	var mean [3]float64
	for i := 0; i < b.N; i++ {
		for axis := 0; axis < 3; axis++ {
			es, err := charz.SliceEntropies(q, f.Dims(), axis, 2)
			if err != nil {
				b.Fatal(err)
			}
			s := 0.0
			for _, e := range es {
				s += e
			}
			mean[axis] = s / float64(len(es))
		}
	}
	b.ReportMetric(mean[0], "H_yz")
	b.ReportMetric(mean[1], "H_xz")
	b.ReportMetric(mean[2], "H_xy")
}

// benchQPConfigs measures CR increase rate over the SZ3 base for a set of
// QP configurations (the Figures 7-9 exploration).
func benchQPConfigs(b *testing.B, configs map[string]core.Config) {
	f := field(datagen.SegSalt, 1)
	eb := f.Range() * 1e-4
	base := sz3.DefaultOptions(eb)
	base.Choice = sz3.ChoiceInterp
	pb, err := sz3.Compress(f, base)
	if err != nil {
		b.Fatal(err)
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			opts := base
			opts.QP = cfg
			opts.ForceQP = true
			var pq []byte
			for i := 0; i < b.N; i++ {
				pq, err = sz3.Compress(f, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*(float64(len(pb))/float64(len(pq))-1), "cr_gain_%")
		})
	}
}

// BenchmarkFig7PredictionDimension explores the QP prediction dimension.
func BenchmarkFig7PredictionDimension(b *testing.B) {
	benchQPConfigs(b, map[string]core.Config{
		"dim=1D-Back": {Mode: core.Mode1DBack, Cond: core.CondSameSign2, MaxLevel: 2},
		"dim=1D-Top":  {Mode: core.Mode1DTop, Cond: core.CondSameSign2, MaxLevel: 2},
		"dim=1D-Left": {Mode: core.Mode1DLeft, Cond: core.CondSameSign2, MaxLevel: 2},
		"dim=2D":      {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2},
		"dim=3D":      {Mode: core.Mode3D, Cond: core.CondSameSign2, MaxLevel: 2},
	})
}

// BenchmarkFig8ConditionCases explores the QP prediction condition.
func BenchmarkFig8ConditionCases(b *testing.B) {
	benchQPConfigs(b, map[string]core.Config{
		"cond=case-I":   {Mode: core.Mode2D, Cond: core.CondAlways, MaxLevel: 2},
		"cond=case-II":  {Mode: core.Mode2D, Cond: core.CondSkipUnpredictable, MaxLevel: 2},
		"cond=case-III": {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2},
		"cond=case-IV":  {Mode: core.Mode2D, Cond: core.CondSameSign3, MaxLevel: 2},
	})
}

// BenchmarkFig9StartLevels explores the QP start level.
func BenchmarkFig9StartLevels(b *testing.B) {
	benchQPConfigs(b, map[string]core.Config{
		"levels=1":   {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 1},
		"levels=1-2": {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2},
		"levels=1-3": {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 3},
		"levels=all": {Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 0},
	})
}

// BenchmarkFig16CompressionSpeed measures compression throughput of every
// base with and without QP at the paper's three error bounds.
func BenchmarkFig16CompressionSpeed(b *testing.B) {
	benchSpeed(b, true)
}

// BenchmarkFig17DecompressionSpeed measures decompression throughput.
func BenchmarkFig17DecompressionSpeed(b *testing.B) {
	benchSpeed(b, false)
}

func benchSpeed(b *testing.B, compression bool) {
	for _, ds := range []datagen.Dataset{datagen.Miranda, datagen.SegSalt} {
		for _, alg := range bench.BaseAlgorithms {
			for _, qp := range []bool{false, true} {
				for _, rel := range []float64{1e-3, 1e-4, 1e-5} {
					name := fmt.Sprintf("ds=%v/alg=%v/qp=%v/rel=%g", ds, alg, qp, rel)
					b.Run(name, func(b *testing.B) {
						f := field(ds, 1)
						opts := scdc.Options{Algorithm: alg, ErrorBound: rel * f.Range()}
						if qp {
							opts.QP = scdc.DefaultQP()
						}
						stream, err := scdc.Compress(f.Data, f.Dims(), opts)
						if err != nil {
							b.Fatal(err)
						}
						b.SetBytes(int64(f.Len() * 8))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if compression {
								if _, err := scdc.Compress(f.Data, f.Dims(), opts); err != nil {
									b.Fatal(err)
								}
							} else {
								if _, err := scdc.Decompress(stream); err != nil {
									b.Fatal(err)
								}
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkFig18Transfer runs the end-to-end transfer model under strong
// scaling and reports the QP speedup.
func BenchmarkFig18Transfer(b *testing.B) {
	for _, cores := range []int{225, 450, 900, 1800} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			var speedup, cr float64
			for i := 0; i < b.N; i++ {
				cfg := transfer.Config{
					Slices:       3600,
					SliceDims:    benchDims[datagen.RTM],
					Cores:        []int{cores},
					ErrorBound:   1e-4 * 2.7,
					SampleSlices: 1,
					Seed:         1,
				}
				cfg.LinkMBps = transfer.ScaledLinkMBps(cfg, 461.75)
				cfg.FSMBps = transfer.ScaledLinkMBps(cfg, 5000)
				res, err := transfer.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				speedup = res[0].Stages.Total() / res[1].Stages.Total()
				cr = res[1].CR
			}
			b.ReportMetric(speedup, "qp_speedup_x")
			b.ReportMetric(cr, "cr_qp")
		})
	}
}

// --- Ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationLosslessBackend compares the lossless back-ends behind
// the Huffman stage: the public menu of store and the default flate.
func BenchmarkAblationLosslessBackend(b *testing.B) {
	f := field(datagen.Miranda, 1)
	eb := f.Range() * 1e-4
	for _, codec := range []lossless.Codec{lossless.Store, lossless.Flate} {
		b.Run("codec="+codec.String(), func(b *testing.B) {
			opts := sz3.DefaultOptions(eb).WithQP()
			opts.Lossless = codec
			var payload []byte
			var err error
			b.SetBytes(int64(f.Len() * 8))
			for i := 0; i < b.N; i++ {
				payload, err = sz3.Compress(f, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Len()*8)/float64(len(payload)), "cr")
		})
	}
}

// BenchmarkAblationQPAdaptiveFallback quantifies the cost/benefit of the
// adaptive encoding fallback versus always applying QP.
func BenchmarkAblationQPAdaptiveFallback(b *testing.B) {
	f := field(datagen.SegSalt, 1)
	eb := f.Range() * 1e-4
	for _, forced := range []bool{false, true} {
		b.Run(fmt.Sprintf("forceQP=%v", forced), func(b *testing.B) {
			opts := sz3.DefaultOptions(eb).WithQP()
			opts.Choice = sz3.ChoiceInterp
			opts.ForceQP = forced
			var payload []byte
			var err error
			b.SetBytes(int64(f.Len() * 8))
			for i := 0; i < b.N; i++ {
				payload, err = sz3.Compress(f, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Len()*8)/float64(len(payload)), "cr")
		})
	}
}

// BenchmarkAblationInterpKindQP measures how the spline kind interacts
// with QP's gain: linear interpolation leaves more residual correlation
// for QP to harvest.
func BenchmarkAblationInterpKindQP(b *testing.B) {
	f := field(datagen.Miranda, 1)
	eb := f.Range() * 1e-4
	for _, kind := range []string{"linear", "cubic"} {
		b.Run("interp="+kind, func(b *testing.B) {
			base := sz3.DefaultOptions(eb)
			base.Choice = sz3.ChoiceInterp
			if kind == "linear" {
				base.Interp = 0
			} else {
				base.Interp = 1
			}
			pb, err := sz3.Compress(f, base)
			if err != nil {
				b.Fatal(err)
			}
			qp := base.WithQP()
			var pq []byte
			for i := 0; i < b.N; i++ {
				pq, err = sz3.Compress(f, qp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*(float64(len(pb))/float64(len(pq))-1), "qp_gain_%")
		})
	}
}

// BenchmarkAblationIndexEntropy measures the entropy reduction H(Q) ->
// H(Q') that drives every ratio gain in the paper.
func BenchmarkAblationIndexEntropy(b *testing.B) {
	for _, ds := range []datagen.Dataset{datagen.Miranda, datagen.SegSalt, datagen.CESM} {
		b.Run("ds="+ds.String(), func(b *testing.B) {
			f := field(ds, 1)
			eb := f.Range() * 1e-4
			tr := &sz3.Trace{}
			opts := sz3.DefaultOptions(eb).WithQP()
			opts.Choice = sz3.ChoiceInterp
			opts.ForceQP = true
			opts.Trace = tr
			for i := 0; i < b.N; i++ {
				if _, err := sz3.Compress(f, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(entropy.Shannon(tr.Q), "H_Q")
			b.ReportMetric(entropy.Shannon(tr.QP), "H_Qprime")
		})
	}
}

// BenchmarkAblationQPLorenzo measures QP in SZ3's Lorenzo mode, the
// Section VII future-work extension: compress and decompress with QP off
// and on, on Miranda at rel 1e-5, the regime where SZ3 picks Lorenzo. The
// stream keeps QP only where the entropy estimate says it pays, so the
// QP-on stream is never the larger one.
func BenchmarkAblationQPLorenzo(b *testing.B) {
	f := field(datagen.Miranda, 1)
	base := sz3.DefaultOptions(f.Range() * 1e-5)
	base.Choice = sz3.ChoiceLorenzo
	var off []byte
	for _, qp := range []bool{false, true} {
		opts := base
		if qp {
			opts = base.WithQP()
		}
		payload, err := sz3.Compress(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		if qp && len(payload) > len(off) {
			b.Fatalf("QP-on stream is %d bytes, QP-off %d", len(payload), len(off))
		}
		off = payload
		cr := float64(f.Len()*8) / float64(len(payload))
		b.Run(fmt.Sprintf("qp=%v/compress", qp), func(b *testing.B) {
			b.SetBytes(int64(f.Len() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := sz3.Compress(f, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cr, "cr")
		})
		b.Run(fmt.Sprintf("qp=%v/decompress", qp), func(b *testing.B) {
			b.SetBytes(int64(f.Len() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := sz3.Decompress(payload, f.Dims()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cr, "cr")
		})
	}
}

// BenchmarkChunkedThroughput measures the embarrassingly parallel chunked
// mode at several worker counts (the multi-core scaling path of the
// paper's transfer experiment), over four chunks: the default extent would
// keep this ~300k-point field in one.
func BenchmarkChunkedThroughput(b *testing.B) {
	f := field(datagen.Scale, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: f.Range() * 1e-4, QP: scdc.DefaultQP(), Workers: workers}
			b.SetBytes(int64(f.Len() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := scdc.CompressChunked(f.Data, f.Dims(), opts, (f.Dims()[0]+3)/4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
