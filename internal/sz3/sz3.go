// Package sz3 is a from-scratch Go reimplementation of the SZ3
// interpolation-based error-bounded lossy compressor (Zhao et al., ICDE
// 2021; Liang et al., TBD 2022), the primary base compressor of the paper.
//
// Pipeline: multilevel spline interpolation for decorrelation, linear-
// scaling quantization, canonical Huffman entropy coding, and a lossless
// back-end — with the paper's QP stage (internal/core) optionally
// intercepting the quantization index array between quantization and
// encoding (Algorithm 1).
//
// Like the original, the compressor switches to a 3D Lorenzo predictor at
// small error bounds when a sampled estimate says Lorenzo will outperform
// interpolation (paper Section VI-C). QP runs in that mode too, over the
// scan-order neighborhood — the paper's Section VII future-work item —
// and the stream keeps it only when the entropy estimate says it pays, as
// in interpolation mode.
package sz3

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// Mode identifies the predictor actually used in a compressed stream.
type Mode byte

const (
	// ModeInterp is multilevel interpolation.
	ModeInterp Mode = 0
	// ModeLorenzo is the 3D Lorenzo fallback.
	ModeLorenzo Mode = 1
)

// stages maps a Mode to the span its sweeps are timed on.
var stages = [...]core.Stage{ModeInterp: core.StageInterp, ModeLorenzo: core.StageLorenzo}

// Choice controls predictor selection at compression time.
type Choice byte

const (
	// ChoiceAuto estimates both predictors on samples and picks the better,
	// like the SZ3 auto-selection.
	ChoiceAuto Choice = 0
	// ChoiceInterp forces interpolation.
	ChoiceInterp Choice = 1
	// ChoiceLorenzo forces Lorenzo.
	ChoiceLorenzo Choice = 2
)

// Options configures compression: the shared back-end options plus SZ3's
// own.
type Options struct {
	core.Backend
	// ErrorBound is the absolute error bound (required, > 0).
	ErrorBound float64
	// Interp selects linear or cubic interpolation. Default cubic.
	Interp interp.Kind
	// Choice controls interpolation/Lorenzo selection. Default auto.
	Choice Choice
	// ForceQP disables the adaptive fallback that keeps the base index
	// stream when QP does not pay. Exploration experiments (Figures 7-9)
	// set it to expose raw per-configuration behavior, including the
	// degradation of Case I at small bounds.
	ForceQP bool
}

// Trace captures compressor internals for the paper's characterization
// experiments; all four engines fill the same type.
type Trace = core.Trace

// DefaultOptions returns the default configuration at the given error
// bound, with QP disabled (enable with WithQP).
func DefaultOptions(eb float64) Options {
	return Options{Backend: core.DefaultBackend(), ErrorBound: eb, Interp: interp.Cubic}
}

// WithQP returns a copy of o with the paper's best-fit QP configuration
// enabled.
func (o Options) WithQP() Options {
	o.Backend = o.Backend.WithQP()
	return o
}

// ParseOrder reads a direction order stored one axis per byte and reports
// whether it is a permutation of the len(b) axes.
func ParseOrder(b []byte) ([]int, bool) {
	order := make([]int, len(b))
	seen := make([]bool, len(b))
	for i, d := range b {
		if int(d) >= len(b) || seen[d] {
			return nil, false
		}
		seen[d] = true
		order[i] = int(d)
	}
	return order, true
}

// Compress compresses field f under the given options. The stream is
// mode, interp kind, ndims and the direction order (DefaultDirOrder; the
// decoder reads any permutation), the shared QP block, the error bound,
// then the shared index and literal blocks (DESIGN.md §5).
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.Normalize(opts.ErrorBound); err != nil {
		return nil, err
	}
	if opts.Interp > interp.Cubic {
		return nil, fmt.Errorf("%w: sz3: unknown interpolation kind %d", verdict.ErrBadOptions, opts.Interp)
	}
	if opts.Choice > ChoiceLorenzo {
		return nil, fmt.Errorf("%w: sz3: unknown predictor choice %d", verdict.ErrBadOptions, opts.Choice)
	}
	order := DefaultDirOrder(f.NDims())
	quant := quantizer.Linear{EB: opts.ErrorBound, Radius: opts.Radius}

	mode := ModeInterp
	switch opts.Choice {
	case ChoiceLorenzo:
		mode = ModeLorenzo
	case ChoiceAuto:
		chSp := opts.Obs.Child("choose")
		if chooseLorenzo(f, opts.ErrorBound, opts.Interp) {
			mode = ModeLorenzo
		}
		chSp.Add("lorenzo", int64(mode))
		chSp.End()
	}

	sw, err := opts.Sweep(f.Data, opts.QP.Enabled(), stages[mode])
	if err != nil {
		return nil, err
	}
	defer sw.Release()

	levels := Levels(f.Dims())
	if mode == ModeInterp {
		compressInterp(sw, f.Dims(), levels, LevelSpec{Order: order, Kind: opts.Interp, Quant: quant})
	} else {
		compressLorenzo(sw, f.Dims(), quant)
	}

	pre := append(make([]byte, 0, 3+len(order)), byte(mode), byte(opts.Interp), byte(len(order)))
	for _, d := range order {
		pre = append(pre, byte(d))
	}
	return opts.Encode(sw, core.Stream{
		Pre:     pre,
		Post:    binary.LittleEndian.AppendUint64(nil, math.Float64bits(opts.ErrorBound)),
		ForceQP: opts.ForceQP,
		Levels:  levels,
		Lorenzo: mode == ModeLorenzo,
	})
}

// Decompress reconstructs a field with the given dims from an SZ3 payload.
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
	hdr, err := r.Bytes(3, "sz3 header")
	if err != nil {
		return nil, err
	}
	mode, kind := Mode(hdr[0]), interp.Kind(hdr[1])
	if mode > ModeLorenzo {
		return nil, fmt.Errorf("%w: sz3: unknown mode %d", verdict.ErrCorrupt, mode)
	}
	if kind > interp.Cubic {
		return nil, fmt.Errorf("%w: sz3: unknown interpolation kind %d", verdict.ErrCorrupt, kind)
	}
	if int(hdr[2]) != len(dims) {
		return nil, fmt.Errorf("%w: sz3: stream ndims %d != caller dims %d", verdict.ErrCorrupt, hdr[2], len(dims))
	}
	ord, err := r.Bytes(len(dims), "dir order")
	if err != nil {
		return nil, err
	}
	dirOrder, ok := ParseOrder(ord)
	if !ok {
		return nil, fmt.Errorf("%w: sz3: bad dir order", verdict.ErrCorrupt)
	}
	if err := r.DecodeQP(); err != nil {
		return nil, err
	}
	eb, err := r.Bound("error bound")
	if err != nil {
		return nil, err
	}
	if err := r.DecodeBlocks(""); err != nil {
		return nil, err
	}
	quant := quantizer.Linear{EB: eb, Radius: r.Radius}

	sw := r.Sweep(stages[mode])
	if mode == ModeInterp {
		err = decompressInterp(sw, dims, LevelSpec{Order: dirOrder, Kind: kind, Quant: quant})
	} else {
		err = decompressLorenzo(sw, dims, quant)
	}
	if err != nil {
		return nil, err
	}
	return sw.Finish(), nil
}
