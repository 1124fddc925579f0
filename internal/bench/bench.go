// Package bench is the shared experiment harness behind the cmd/ drivers
// and the root testing.B benchmarks. It runs (dataset, field, algorithm,
// QP, error bound) cells and reports the metrics the paper's tables and
// figures are built from: compression ratio, bit-rate, PSNR, max error,
// and compression/decompression throughput.
package bench

import (
	"fmt"
	"math"
	"time"

	"scdc"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/metrics"
)

// Point is one measured experiment cell.
type Point struct {
	Dataset   datagen.Dataset
	Field     int
	Algorithm scdc.Algorithm
	QP        bool
	RelEB     float64 // value-range-relative bound
	AbsEB     float64 // resolved absolute bound

	CR       float64 // compression ratio vs raw float64
	BitRate  float64 // bits/sample at the dataset's native precision
	PSNR     float64
	MaxErr   float64
	CompMBps float64
	DecMBps  float64
}

// FieldCache memoizes synthesized fields across experiment cells.
type FieldCache struct {
	m map[string]*grid.Field
}

// NewFieldCache returns an empty cache.
func NewFieldCache() *FieldCache { return &FieldCache{m: make(map[string]*grid.Field)} }

// Get synthesizes (or returns the cached) field.
func (c *FieldCache) Get(ds datagen.Dataset, field int, dims []int, seed int64) *grid.Field {
	key := fmt.Sprintf("%d/%d/%v/%d", ds, field, dims, seed)
	if f, ok := c.m[key]; ok {
		return f
	}
	f := datagen.MustGenerate(ds, field, dims, seed)
	c.m[key] = f
	return f
}

// Run measures one cell on the given field.
func Run(f *grid.Field, ds datagen.Dataset, fieldIdx int, alg scdc.Algorithm, qp bool, relEB float64) (Point, error) {
	pt := Point{Dataset: ds, Field: fieldIdx, Algorithm: alg, QP: qp, RelEB: relEB}
	pt.AbsEB = relEB * f.Range()

	opts := scdc.Options{Algorithm: alg, ErrorBound: pt.AbsEB}
	if qp {
		opts.QP = scdc.DefaultQP()
	}
	t0 := time.Now()
	stream, err := scdc.Compress(f.Data, f.Dims(), opts)
	if err != nil {
		return pt, err
	}
	compSec := time.Since(t0).Seconds()

	t1 := time.Now()
	res, err := scdc.Decompress(stream)
	if err != nil {
		return pt, err
	}
	decSec := time.Since(t1).Seconds()

	raw := f.Len() * 8
	pt.CR = metrics.CompressionRatio(raw, len(stream))
	bits := 64
	if ds.Spec().Float32 {
		// The paper reports ratios and bit-rates against the dataset's
		// native single-precision size; our pipeline stores float64, so
		// halve the ratio for reporting parity.
		pt.CR /= 2
		bits = 32
	}
	pt.BitRate = metrics.BitRate(bits, pt.CR)
	pt.PSNR, _ = metrics.PSNR(f.Data, res.Data)
	pt.MaxErr, _ = metrics.MaxAbsError(f.Data, res.Data)
	pt.CompMBps = metrics.ThroughputMBps(raw, compSec)
	pt.DecMBps = metrics.ThroughputMBps(raw, decSec)
	return pt, nil
}

// BaseAlgorithms are the four interpolation-based compressors the paper
// integrates QP into.
var BaseAlgorithms = []scdc.Algorithm{scdc.MGARD, scdc.SZ3, scdc.QoZ, scdc.HPEZ}

// Comparators are the transform-based state-of-the-art codecs of Table IV.
var Comparators = []scdc.Algorithm{scdc.ZFP, scdc.TTHRESH, scdc.SPERR}

// RateDistortion sweeps relative error bounds for one dataset/field and
// every base algorithm with and without QP — one run regenerates the
// series of Figures 10-15 for that dataset.
func RateDistortion(cache *FieldCache, ds datagen.Dataset, field int, dims []int, seed int64, relEBs []float64) ([]Point, error) {
	f := cache.Get(ds, field, dims, seed)
	var out []Point
	for _, alg := range BaseAlgorithms {
		for _, qp := range []bool{false, true} {
			for _, rel := range relEBs {
				pt, err := Run(f, ds, field, alg, qp, rel)
				if err != nil {
					return nil, fmt.Errorf("%v/%v qp=%v rel=%g: %w", ds, alg, qp, rel, err)
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// SearchPSNR finds the relative bound at which the algorithm reaches the
// target PSNR (within tol dB), as the paper does to align Table II rows
// at PSNR 75. Returns the matching measurement.
func SearchPSNR(cache *FieldCache, ds datagen.Dataset, field int, dims []int, seed int64,
	alg scdc.Algorithm, qp bool, targetPSNR, tol float64) (Point, error) {

	f := cache.Get(ds, field, dims, seed)
	lo, hi := 1e-7, 1e-1 // relative bound bracket: PSNR falls as eb grows
	var best Point
	bestDiff := 1e18
	for iter := 0; iter < 18; iter++ {
		mid := sqrtGeo(lo, hi)
		pt, err := Run(f, ds, field, alg, qp, mid)
		if err != nil {
			return best, err
		}
		diff := pt.PSNR - targetPSNR
		if math.Abs(diff) < bestDiff {
			bestDiff = math.Abs(diff)
			best = pt
		}
		if math.Abs(diff) <= tol {
			return pt, nil
		}
		if diff > 0 { // too accurate: loosen the bound
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, nil
}

// sqrtGeo is the geometric midpoint for log-scale bisection.
func sqrtGeo(a, b float64) float64 {
	m := a * b
	if m <= 0 {
		return (a + b) / 2
	}
	return math.Sqrt(m)
}
