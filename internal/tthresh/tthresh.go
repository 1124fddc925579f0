// Package tthresh is a TTHRESH-like global-transform compressor
// (Ballester-Ripoll, Lindstrom, Pajarola 2019), the second transform-based
// comparator in the paper's Table IV.
//
// Real TTHRESH computes a Tucker/HOSVD decomposition and bit-plane-codes
// the core tensor. This reimplementation substitutes the global orthogonal
// transform with a separable 3D DCT-II (documented in DESIGN.md): like
// HOSVD it is a dense global orthonormal decorrelation, so it preserves
// the codec's characteristic profile — strong ratios from global energy
// compaction, norm-based (RMSE) rather than pointwise error control, and
// low throughput from the dense transform.
//
// The target error is interpreted as an RMSE budget of ErrorBound/2
// (uniform coefficient quantization, Parseval), matching how TTHRESH rows
// are aligned with error-bounded compressors in the paper's Table IV.
package tthresh

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/grid"
	"scdc/internal/huffman"
	"scdc/internal/lossless"
	"scdc/internal/transform"
	"scdc/internal/verdict"
)

// Options configures compression.
type Options struct {
	// ErrorBound is the nominal error bound; the codec targets an RMSE of
	// ErrorBound/2 (norm-based control, like the original).
	ErrorBound float64
	// Lossless selects the final back-end. Default Flate.
	Lossless lossless.Codec
}

// DefaultOptions returns the default configuration.
func DefaultOptions(eb float64) Options {
	return Options{ErrorBound: eb, Lossless: lossless.Flate}
}

type plan3 struct {
	nx, ny, nz int
	px, py, pz int
}

func makePlan(dims []int) plan3 {
	var p plan3
	p.nx, p.ny, p.nz = grid.Collapse3(dims)
	p.px, p.py, p.pz = nextPow2(p.nx), nextPow2(p.ny), nextPow2(p.nz)
	return p
}

func nextPow2(n int) int {
	if n <= 1 {
		return n
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Compress compresses field f under the given options.
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if !(opts.ErrorBound > 0) || math.IsInf(opts.ErrorBound, 0) {
		return nil, fmt.Errorf("%w: tthresh: error bound must be positive and finite", verdict.ErrBadOptions)
	}
	if opts.Lossless == 0 {
		opts.Lossless = lossless.Flate
	}
	pl := makePlan(f.Dims())
	c := grid.PadEdge(f.Data, [3]int{pl.nx, pl.ny, pl.nz}, [3]int{pl.px, pl.py, pl.pz})

	dctAxes(c, pl, transform.DCT2)

	// Quantum from the RMSE budget: uniform quantization error has RMS
	// q0/sqrt(12) per orthonormal coefficient; the padding ratio dilutes
	// valid-region error, which we conservatively ignore.
	q0 := (opts.ErrorBound / 2) * math.Sqrt(12)
	q := make([]int32, len(c))
	for i, v := range c {
		r := math.Round(v / q0)
		if r > 1<<30 || r < -(1<<30) || math.IsNaN(r) {
			return nil, fmt.Errorf("%w: tthresh: coefficient overflow; bound too small for this data", verdict.ErrBadOptions)
		}
		q[i] = int32(r)
	}

	huff := huffman.Encode(q)
	buf := make([]byte, 0, len(huff)+16)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(opts.ErrorBound))
	buf = binary.AppendUvarint(buf, uint64(len(huff)))
	buf = append(buf, huff...)
	return lossless.Compress(opts.Lossless, buf)
}

// Decompress reconstructs a field with the given dims.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	n, err := grid.CheckDims(dims)
	if err != nil {
		return nil, err
	}
	buf, err := lossless.DecompressLimit(payload, lossless.PayloadLimit(n), 1)
	if err != nil {
		return nil, err
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: tthresh: short header", verdict.ErrCorrupt)
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("%w: tthresh: bad error bound", verdict.ErrCorrupt)
	}
	hl, k := binary.Uvarint(buf)
	if k <= 0 || hl > uint64(len(buf)-k) {
		return nil, fmt.Errorf("%w: tthresh: bad huffman length", verdict.ErrCorrupt)
	}
	q, err := huffman.Decode(buf[k : k+int(hl)])
	if err != nil {
		return nil, err
	}

	pl := makePlan(dims)
	if len(q) != pl.px*pl.py*pl.pz {
		return nil, fmt.Errorf("%w: tthresh: %d coefficients for padded size %d", verdict.ErrCorrupt, len(q), pl.px*pl.py*pl.pz)
	}
	q0 := (eb / 2) * math.Sqrt(12)
	c := make([]float64, len(q))
	for i, s := range q {
		c[i] = float64(s) * q0
	}
	dctAxes(c, pl, transform.DCT3)

	out, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	for x := 0; x < pl.nx; x++ {
		for y := 0; y < pl.ny; y++ {
			srow := (x*pl.py + y) * pl.pz
			drow := (x*pl.ny + y) * pl.nz
			copy(out.Data[drow:drow+pl.nz], c[srow:srow+pl.nz])
		}
	}
	return out, nil
}

// dctAxes applies fn (DCT2 or DCT3) along every non-trivial axis.
func dctAxes(d []float64, pl plan3, fn func([]float64) []float64) {
	if pl.pz > 1 {
		for x := 0; x < pl.px; x++ {
			for y := 0; y < pl.py; y++ {
				row := (x*pl.py + y) * pl.pz
				copy(d[row:row+pl.pz], fn(d[row:row+pl.pz]))
			}
		}
	}
	if pl.py > 1 {
		line := make([]float64, pl.py)
		for x := 0; x < pl.px; x++ {
			for z := 0; z < pl.pz; z++ {
				base := x*pl.py*pl.pz + z
				for y := 0; y < pl.py; y++ {
					line[y] = d[base+y*pl.pz]
				}
				out := fn(line)
				for y := 0; y < pl.py; y++ {
					d[base+y*pl.pz] = out[y]
				}
			}
		}
	}
	if pl.px > 1 {
		line := make([]float64, pl.px)
		for y := 0; y < pl.py; y++ {
			for z := 0; z < pl.pz; z++ {
				base := y*pl.pz + z
				for x := 0; x < pl.px; x++ {
					line[x] = d[base+x*pl.py*pl.pz]
				}
				out := fn(line)
				for x := 0; x < pl.px; x++ {
					d[base+x*pl.py*pl.pz] = out[x]
				}
			}
		}
	}
}
