// Package qoz is a from-scratch Go reimplementation of QoZ (Liu et al.,
// SC 2022), the quality-oriented successor of SZ3 and the second base
// compressor of the paper.
//
// QoZ extends the SZ3 interpolation pipeline with:
//
//   - an anchor grid: points on the coarsest lattice are stored losslessly,
//     improving top-level predictions;
//   - per-level auto-tuning of the interpolation (spline kind and
//     direction order are chosen per level from sampled residuals);
//   - tuned level-wise error bounds: coarse levels may be compressed with
//     a tighter bound eb_l = max(eb/alpha^(l-1), eb/beta), which improves
//     the predictions for (and hence shrinks) the much larger finer
//     levels; (alpha, beta) is selected by trial compression of a sampled
//     block.
//
// QoZ never switches to Lorenzo (paper Section VI-C), so QP is always
// applicable.
package qoz

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/obs"
	"scdc/internal/sz3"
	"scdc/internal/verdict"
)

// Options configures compression: the shared back-end options plus the
// error bound. The auto-tuner always runs.
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

// plan is the fully resolved compression plan, serialized in the stream
// header so decompression replays it exactly.
type plan struct {
	levels int
	// Per level (index level-1): spline kind, direction order, error bound.
	kinds  []interp.Kind
	orders [][]int
	ebs    []float64
	radius int32
}

// Compress compresses field f under the given options. The stream is the
// shared QP block, the plan, then the shared anchor, index and literal
// blocks (DESIGN.md §5).
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.Normalize(opts.ErrorBound); err != nil {
		return nil, err
	}
	pl := buildPlan(f, opts)

	sw, err := opts.Sweep(f.Data, opts.QP.Enabled(), core.StageInterp)
	if err != nil {
		return nil, err
	}
	defer sw.Release()

	anchors := compressCore(sw, f.Dims(), pl)
	return opts.Encode(sw, core.Stream{
		Post:     encodePlan(pl),
		Side:     anchors,
		SideName: "anchors",
		Levels:   pl.levels,
	})
}

// Plan runs the planning stage alone — the auto-tuner — and returns the
// plan block Compress would write for f. It is how the tuner is priced
// apart from the pipeline it configures.
func Plan(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.Normalize(opts.ErrorBound); err != nil {
		return nil, err
	}
	return encodePlan(buildPlan(f, opts)), nil
}

func encodePlan(pl plan) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, 64), uint64(pl.levels))
	for l := 0; l < pl.levels; l++ {
		buf = append(buf, byte(pl.kinds[l]), byte(len(pl.orders[l])))
		for _, d := range pl.orders[l] {
			buf = append(buf, byte(d))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.ebs[l]))
	}
	return buf
}

// decodePlan reads the plan of an nd-dimensional field; the radius comes
// from the shared QP block.
func decodePlan(r *core.Reader, nd int) (plan, error) {
	pl := plan{radius: r.Radius}
	levels, err := r.Uvarint(0, 62, "level count")
	if err != nil {
		return pl, err
	}
	pl.levels = int(levels)
	for l := 0; l < pl.levels; l++ {
		hdr, err := r.Bytes(2+nd, "plan level")
		if err != nil {
			return pl, err
		}
		order, ok := sz3.ParseOrder(hdr[2:])
		if int(hdr[1]) != nd || !ok {
			return pl, fmt.Errorf("%w: qoz: bad plan order", verdict.ErrCorrupt)
		}
		if kind := interp.Kind(hdr[0]); kind > interp.Cubic {
			return pl, fmt.Errorf("%w: qoz: unknown interpolation kind %d", verdict.ErrCorrupt, kind)
		}
		eb, err := r.Bound("plan eb")
		if err != nil {
			return pl, err
		}
		pl.kinds = append(pl.kinds, interp.Kind(hdr[0]))
		pl.orders = append(pl.orders, order)
		pl.ebs = append(pl.ebs, eb)
	}
	return pl, nil
}

// Decompress reconstructs a field with the given dims from a QoZ payload.
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
	pl, err := decodePlan(r, len(dims))
	if err != nil {
		return nil, err
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
