package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"scdc"
	"scdc/internal/grid"
	"scdc/internal/metrics"
)

// The four timed calls of a round, in the order a round issues them.
const (
	opCompressQP = iota
	opCompressBase
	opDecompressQP
	opDecompressBase
	numOps
)

var opNames = [numOps]string{"compress_qp", "compress_base", "decompress_qp", "decompress_base"}

// ops counts operations: every timed call and every correctness check is
// one. A failed check fails the run.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// fixture is a synthesized window with its reference streams and
// reconstruction: what every round's output is compared against.
type fixture struct {
	w      workload
	seed   int64
	field  *grid.Field
	bound  float64
	raw    int             // uncompressed bytes
	opts   [2]scdc.Options // QP, base
	stream [2][]byte       // reference streams: QP, base
	recon  []float64       // reference reconstruction (QP on == QP off)
	psnr   float64
	genSec float64
}

// setUp synthesizes the seed's window, compresses and decompresses it with
// and without QP, and verifies the error bound on every point, that QP does
// not change the reconstruction, and PSNR.
func setUp(w workload, seed int64, o *ops) (*fixture, error) {
	t0 := time.Now()
	f, err := w.synthesize(seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{w: w, seed: seed, field: f, raw: 8 * f.Len(), genSec: time.Since(t0).Seconds()}
	fx.bound = w.Rel * f.Range()
	var recon [2][]float64
	for i, qp := range []bool{true, false} {
		fx.opts[i] = w.options(fx.bound, qp)
		if fx.stream[i], err = scdc.Compress(f.Data, f.Dims(), fx.opts[i]); err != nil {
			return nil, fmt.Errorf("%s reference compress: %w", w.Name, err)
		}
		res, err := scdc.Decompress(fx.stream[i])
		if err != nil {
			return nil, fmt.Errorf("%s reference decompress: %w", w.Name, err)
		}
		recon[i] = res.Data
		maxErr, err := metrics.MaxAbsError(f.Data, res.Data)
		o.check(err == nil && maxErr <= fx.bound, "%s qp=%v: max error %g exceeds bound %g", w.Name, qp, maxErr, fx.bound)
	}
	o.check(sameBits(recon[0], recon[1]), "%s: QP changed the reconstruction", w.Name)
	fx.recon = recon[0]
	fx.psnr, err = metrics.PSNR(f.Data, fx.recon)
	o.check(err == nil && !math.IsInf(fx.psnr, 0) && !math.IsNaN(fx.psnr), "%s: PSNR %v", w.Name, fx.psnr)
	return fx, nil
}

// sameBits reports whether two reconstructions are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samples holds what the rounds of one phase measured.
type samples struct {
	sec   [numOps][]float64 // call wall time per round
	norm  [numOps][]float64 // sec rescaled to a host at the reference calibration rate
	calib []float64         // calibration-kernel seconds per round
}

func (s *samples) rounds() int { return len(s.calib) }

// timed runs fn after a full collection, so every call starts from the same
// heap, and returns its wall time and the bytes it allocated.
func timed(fn func() error) (sec, allocBytes float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return sec, float64(m1.TotalAlloc - m0.TotalAlloc), err
}

// round issues the four calls once, one at a time from this goroutine, and
// checks each output against the reference. Host drift within a round hits
// all four calls alike. keep, when false, discards the timings (warm-up).
func (fx *fixture) round(s *samples, o *ops, keep bool) error {
	calib := calibrate(fx.field.Data)
	var sec [numOps]float64
	for op := 0; op < numOps; op++ {
		v := op % 2 // 0 = QP, 1 = base
		var out []byte
		var res *scdc.Result
		var err error
		if op < opDecompressQP {
			sec[op], _, err = timed(func() (e error) {
				out, e = scdc.Compress(fx.field.Data, fx.field.Dims(), fx.opts[v])
				return e
			})
		} else {
			sec[op], _, err = timed(func() (e error) {
				res, e = scdc.Decompress(fx.stream[v])
				return e
			})
		}
		o.check(err == nil, "%s %s: %v", fx.w.Name, opNames[op], err)
		if err != nil {
			return fmt.Errorf("%s %s: %w", fx.w.Name, opNames[op], err)
		}
		if res == nil {
			o.check(bytes.Equal(out, fx.stream[v]), "%s %s: stream differs from the reference stream", fx.w.Name, opNames[op])
		} else {
			o.check(sameBits(res.Data, fx.recon), "%s %s: reconstruction differs from the reference", fx.w.Name, opNames[op])
		}
	}
	if keep {
		s.calib = append(s.calib, calib)
		ref := calibPasses * float64(fx.raw) / (calibRefMBps * 1e6)
		for op := 0; op < numOps; op++ {
			s.sec[op] = append(s.sec[op], sec[op])
			s.norm[op] = append(s.norm[op], sec[op]*ref/calib)
		}
	}
	return nil
}

// measure runs rounds for the given time, and never fewer than minRounds.
func (fx *fixture) measure(seconds float64, minRounds int, o *ops) (*samples, error) {
	s := &samples{}
	start := time.Now()
	for s.rounds() < minRounds || time.Since(start).Seconds() < seconds {
		if err := fx.round(s, o, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// allocWindows is how many windows of the global field the allocation
// metrics are a median over. What one call allocates steps with what the
// tuner chooses for its input: over 120 windows QoZ compress allocated 16.0
// to 18.3 MB, most of them within 1% of 16.1, and ten runs on one window each
// spread past a 10% bound about one time in thirty. The median over seven
// windows spread at most 4.4% in 5000 simulated sets of ten runs.
const allocWindows = 7

// allocation measures the bytes that one QP compress call and one QP
// decompress call allocate on each of the seed's allocWindows windows (the
// timed window first), with the pools empty as in a round, and returns the
// medians. Every call and every window's error bound is an operation.
func (fx *fixture) allocation(o *ops) (compress, decompress float64, err error) {
	w := fx.w
	global, err := w.global()
	if err != nil {
		return 0, 0, err
	}
	var ca, da []float64
	for _, off := range w.offsets(fx.seed, allocWindows) {
		f, err := w.cut(global, off)
		if err != nil {
			return 0, 0, err
		}
		bound := w.Rel * f.Range()
		opts := w.options(bound, true)
		var out []byte
		var res *scdc.Result
		// Two collections empty the pools, victim caches included; in a round
		// the calls between two compressions of one kind do the same.
		runtime.GC()
		runtime.GC()
		_, c, err := timed(func() (e error) {
			out, e = scdc.Compress(f.Data, f.Dims(), opts)
			return e
		})
		o.check(err == nil, "%s allocation window %v compress: %v", w.Name, off, err)
		if err != nil {
			return 0, 0, fmt.Errorf("%s allocation window %v compress: %w", w.Name, off, err)
		}
		_, d, err := timed(func() (e error) {
			res, e = scdc.Decompress(out)
			return e
		})
		o.check(err == nil, "%s allocation window %v decompress: %v", w.Name, off, err)
		if err != nil {
			return 0, 0, fmt.Errorf("%s allocation window %v decompress: %w", w.Name, off, err)
		}
		maxErr, err := metrics.MaxAbsError(f.Data, res.Data)
		o.check(err == nil && maxErr <= bound, "%s allocation window %v: max error %g exceeds bound %g", w.Name, off, maxErr, bound)
		ca, da = append(ca, c), append(da, d)
	}
	return median(ca), median(da), nil
}

const (
	// calibPasses is how many passes over the field the calibration kernel
	// makes per round. One pass (a few ms) sampled the host too briefly to
	// track it; the summed time of four did, and more did no better.
	calibPasses = 4
	// calibRefMBps is the calibration rate of the reference host that call
	// times are rescaled to: about what this kernel reaches here in a quiet
	// phase, so that normalised and raw MB/s read alike on a quiet host.
	calibRefMBps = 4000
)

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate is a fixed stencil-plus-histogram kernel over the field that
// calls nothing in the product: its rate tells a slow host phase from a slow
// compressor. Neighbours on a shared host slow it and the product alike, so
// each round's call times are divided by it. It returns the seconds
// calibPasses passes took.
func calibrate(x []float64) float64 {
	var hist [256]uint64
	t0 := time.Now()
	for pass := 0; pass < calibPasses; pass++ {
		for i := 1; i+1 < len(x); i++ {
			r := x[i] - 0.5*(x[i-1]+x[i+1])
			hist[uint8(math.Float64bits(r)>>44)]++
		}
	}
	sec := time.Since(t0).Seconds()
	for i, h := range hist {
		calibSink += h * uint64(i)
	}
	return sec
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calibMBps is the median rate of the calibration kernel over the rounds.
func (fx *fixture) calibMBps(s *samples) float64 {
	return calibPasses * float64(fx.raw) / 1e6 / median(s.calib)
}

// mbps is throughput at the lower-quartile call time: interference only adds
// time, and p25 repeats better than the median or the minimum on a shared
// host.
func (fx *fixture) mbps(sec []float64) float64 {
	return float64(fx.raw) / 1e6 / quantile(sec, 0.25)
}

// endToEndMetrics derives the gated metrics from one untraced phase.
func (fx *fixture) endToEndMetrics(s *samples, setupSec, compressAlloc, decompressAlloc float64) map[string]float64 {
	return map[string]float64{
		"compress_qp_MBps":       fx.mbps(s.norm[opCompressQP]),
		"compress_base_MBps":     fx.mbps(s.norm[opCompressBase]),
		"decompress_qp_MBps":     fx.mbps(s.norm[opDecompressQP]),
		"decompress_base_MBps":   fx.mbps(s.norm[opDecompressBase]),
		"ratio_qp":               float64(fx.raw) / float64(len(fx.stream[0])),
		"ratio_base":             float64(fx.raw) / float64(len(fx.stream[1])),
		"psnr_db":                fx.psnr,
		"compress_qp_alloc_MB":   compressAlloc / 1e6,
		"decompress_qp_alloc_MB": decompressAlloc / 1e6,
		"setup_s":                setupSec,
	}
}
