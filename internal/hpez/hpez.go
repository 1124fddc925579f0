// Package hpez is a from-scratch Go reimplementation of HPEZ (Liu et al.,
// SIGMOD 2024), the highest-ratio interpolation-based compressor among the
// paper's four bases.
//
// HPEZ extends the QoZ design with:
//
//   - multi-dimensional interpolation: each level's points are organized
//     into parity classes (face, edge, center) so that every point can be
//     predicted by averaging 1D spline stencils along *all* of its odd
//     axes, with both stencil sides always available. This exploits the
//     cross-direction correlation that QP otherwise captures — the reason
//     the paper finds QP's gain on HPEZ modest (Section VI-B);
//   - block-wise interpolation tuning: each 32-wide block selects its own
//     spline kind from sampled residuals;
//   - dynamic dimension freezing: axes whose interpolation residuals are
//     far worse than the best axis are excluded from multi-dimensional
//     averaging per level;
//   - QoZ-style anchors and tuned level-wise error bounds.
package hpez

import (
	"encoding/binary"
	"math"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/obs"
)

const (
	blockSize = 32
	// freezeFactor is the residual ratio beyond which an axis is frozen.
	freezeFactor = 3.0
)

// Options configures compression: the shared back-end options plus the
// error bound. The tuner (block-wise kinds, dimension freezing, level-wise
// bounds) always runs.
type Options struct {
	core.Backend
	// ErrorBound is the absolute error bound (required, > 0).
	ErrorBound float64
}

// DefaultOptions returns the default configuration at the given error
// bound, with QP disabled (enable with WithQP).
func DefaultOptions(eb float64) Options {
	return Options{Backend: core.DefaultBackend(), ErrorBound: eb}
}

// WithQP returns a copy of o with the paper's best-fit QP configuration.
func (o Options) WithQP() Options {
	o.Backend = o.Backend.WithQP()
	return o
}

// plan is the resolved compression plan, fully serialized in the stream.
type plan struct {
	levels int
	ebs    []float64 // per level (index level-1)
	frozen []uint8   // per level bitmask of frozen axes
	// weights holds per-level per-axis interpolation weights (0..255),
	// HPEZ's auto-tuned multi-component interpolation: stencils along
	// more predictable axes receive proportionally larger weight.
	weights [][4]uint8
	radius  int32
	// blockCubic holds one bit per block (1 = cubic, 0 = linear), applied
	// at levels 1 and 2; coarser levels always use cubic.
	blockCubic []byte
	// blockWeights holds per-block per-axis interpolation weights, applied
	// at levels 1 and 2 (HPEZ's block-wise interpolation tuning): a block
	// straddling a sharp interface can locally down-weight the axis that
	// crosses it while the rest of the field keeps using it.
	blockWeights [][4]uint8
	blockGrid    []int // blocks per axis; block tables are row-major over it
}

func (pl *plan) blockIsCubic(blockIdx int) bool {
	return pl.blockCubic[blockIdx/8]&(1<<uint(blockIdx%8)) != 0
}

func blockGridDims(dims []int) []int {
	g := make([]int, len(dims))
	for d, n := range dims {
		g[d] = (n + blockSize - 1) / blockSize
	}
	return g
}

func numBlocks(g []int) int {
	n := 1
	for _, v := range g {
		n *= v
	}
	return n
}

// Compress compresses field f under the given options. The stream is the
// shared QP block, the plan (per-level and per-block tables), then the
// shared anchor, index and literal blocks (DESIGN.md §5).
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.Normalize(opts.ErrorBound); err != nil {
		return nil, err
	}
	tuneSp := opts.Obs.Child("choose")
	pl := buildPlan(f, opts)
	tuneSp.Add("levels", int64(pl.levels))
	tuneSp.End()

	sw, err := opts.Sweep(f.Data, opts.QP.Enabled(), core.StageInterp)
	if err != nil {
		return nil, err
	}
	defer sw.Release()

	anchors := compressCore(sw, f.Dims(), pl)

	post := binary.AppendUvarint(make([]byte, 0, 16+13*pl.levels+len(pl.blockCubic)+4*len(pl.blockWeights)), uint64(pl.levels))
	for l := 0; l < pl.levels; l++ {
		post = append(post, pl.frozen[l])
		post = append(post, pl.weights[l][:]...)
		post = binary.LittleEndian.AppendUint64(post, math.Float64bits(pl.ebs[l]))
	}
	post = binary.AppendUvarint(post, uint64(len(pl.blockCubic)))
	post = append(post, pl.blockCubic...)
	for _, bw := range pl.blockWeights {
		post = append(post, bw[:]...)
	}
	return opts.Encode(sw, core.Stream{
		Post:     post,
		Side:     anchors,
		SideName: "anchors",
		Levels:   pl.levels,
	})
}

// Decompress reconstructs a field with the given dims from an HPEZ
// payload.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	return DecompressObs(payload, dims, nil)
}

// DecompressObs is Decompress with per-stage telemetry recorded on sp
// (which may be nil). The reconstruction is identical, observed or not.
func DecompressObs(payload []byte, dims []int, sp *obs.Span) (*grid.Field, error) {
	r, err := core.DecodeStream(payload, dims, sp)
	if err != nil {
		return nil, err
	}
	if err := r.DecodeQP(); err != nil {
		return nil, err
	}
	pl := plan{radius: r.Radius, blockGrid: blockGridDims(dims)}
	levels, err := r.Uvarint(1, 62, "level count")
	if err != nil {
		return nil, err
	}
	pl.levels = int(levels)
	for l := 0; l < pl.levels; l++ {
		hdr, err := r.Bytes(5, "level header")
		if err != nil {
			return nil, err
		}
		eb, err := r.Bound("level eb")
		if err != nil {
			return nil, err
		}
		pl.frozen = append(pl.frozen, hdr[0])
		pl.weights = append(pl.weights, [4]uint8(hdr[1:5]))
		pl.ebs = append(pl.ebs, eb)
	}
	nb := numBlocks(pl.blockGrid)
	nbits, err := r.Uvarint(uint64(nb+7)/8, uint64(nb+7)/8, "block table size")
	if err != nil {
		return nil, err
	}
	if pl.blockCubic, err = r.Bytes(int(nbits), "block table"); err != nil {
		return nil, err
	}
	bw, err := r.Bytes(4*nb, "block weight table")
	if err != nil {
		return nil, err
	}
	pl.blockWeights = make([][4]uint8, len(bw)/4)
	for i := range pl.blockWeights {
		copy(pl.blockWeights[i][:], bw[4*i:])
	}
	if err := r.DecodeBlocks("anchors"); err != nil {
		return nil, err
	}

	sw := r.Sweep(core.StageInterp)
	if err := decompressCore(sw, dims, pl, r.Side); err != nil {
		sw.Release()
		return nil, err
	}
	return sw.Finish(), nil
}
