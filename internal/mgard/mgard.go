// Package mgard is a from-scratch Go reimplementation of the MGARD
// multilevel compressor (Ainsworth, Tugluk, Whitney, Klasky 2018-2019),
// the fourth base compressor of the paper.
//
// MGARD decorrelates data with a multilevel finite-element decomposition:
// at each level, fine-node values are predicted by multilinear
// interpolation of the coarse lattice and the differences become the
// multilevel detail coefficients; an L2 projection correction (tridiagonal
// mass-matrix solves along each dimension) is then added to the coarse
// nodal values so the coarse approximation is the L2-best representative,
// not just the sub-sampled one. Details are quantized level by level with
// a budgeted per-level bound so the accumulated reconstruction error stays
// within the user's bound.
//
// Two simplifications relative to the full MGARD theory are documented in
// DESIGN.md: the grid is treated as uniform dyadic (boundary nodes off the
// lattice are predicted with one-sided stencils), and the multivariate L2
// correction is applied dimension by dimension from the single-axis detail
// classes. Both preserve the pipeline structure the paper's QP method
// plugs into — level-wise detail quantization indices on parity-class
// lattices — and the compressor's characteristic profile (modest ratios,
// level-wise error budgeting).
package mgard

import (
	"encoding/binary"
	"math"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

// Options configures compression: the shared back-end options plus
// MGARD's own. Workers covers the sharded back end only; the
// decomposition and the QP sweeps run on the calling goroutine.
type Options struct {
	core.Backend
	// ErrorBound is the absolute error bound (required, > 0). The bound is
	// budgeted across levels: each level quantizes its details with
	// ErrorBound/(levels+1), and the remainder absorbs the projection
	// corrections.
	ErrorBound float64
}

// DefaultOptions returns the default configuration.
func DefaultOptions(eb float64) Options {
	return Options{Backend: core.DefaultBackend(), ErrorBound: eb}
}

// WithQP returns a copy of o with the paper's best-fit QP configuration.
func (o Options) WithQP() Options {
	o.Backend = o.Backend.WithQP()
	return o
}

// levelBound returns the per-level quantization bound: the user's bound is
// split evenly over the levels plus one budget slot that absorbs the L2
// correction contributions.
func levelBound(eb float64, levels int) float64 {
	return eb / float64(levels+1)
}

// Compress compresses field f under the given options. The stream is the
// shared QP block, the level count and error bound, then the shared
// coarse, index and literal blocks (DESIGN.md §5).
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.Normalize(opts.ErrorBound); err != nil {
		return nil, err
	}
	levels := sz3.AnchorLevels(f.Dims())

	sw, err := opts.Sweep(f.Data, opts.QP.Enabled(), core.StageInterp)
	if err != nil {
		return nil, err
	}
	defer sw.Release()

	quant := quantizer.Linear{EB: levelBound(opts.ErrorBound, levels), Radius: opts.Radius}
	coarse := compressCore(sw, f.Dims(), quant, levels)

	post := binary.AppendUvarint(make([]byte, 0, 16), uint64(levels))
	post = binary.LittleEndian.AppendUint64(post, math.Float64bits(opts.ErrorBound))
	return opts.Encode(sw, core.Stream{
		Post:     post,
		Side:     coarse,
		SideName: "coarse",
		Levels:   levels,
	})
}

// Decompress reconstructs a field with the given dims from an MGARD
// payload.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	return DecompressObs(payload, dims, 1, nil)
}

// DecompressObs is Decompress with up to workers goroutines applied to
// the sharded stages of a stream (Huffman shards, the sharded lossless
// container), and per-stage telemetry recorded on sp (which may be nil).
// The reconstruction is byte-identical for any worker count, observed or
// not.
func DecompressObs(payload []byte, dims []int, workers int, sp *obs.Span) (*grid.Field, error) {
	r, err := core.DecodeStream(payload, dims, workers, sp)
	if err != nil {
		return nil, err
	}
	if err := r.DecodeQP(); err != nil {
		return nil, err
	}
	levels, err := r.Uvarint(1, 62, "level count")
	if err != nil {
		return nil, err
	}
	eb, err := r.Bound("error bound")
	if err != nil {
		return nil, err
	}
	if err := r.DecodeBlocks("coarse"); err != nil {
		return nil, err
	}

	quant := quantizer.Linear{EB: levelBound(eb, int(levels)), Radius: r.Radius}
	sw := r.Sweep(core.StageInterp)
	if err := decompressCore(sw, dims, quant, int(levels), r.Side); err != nil {
		return nil, err
	}
	return sw.Finish(), nil
}
