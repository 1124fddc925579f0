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
	"errors"
	"fmt"
	"math"

	"scdc/internal/core"
	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/lossless"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

// ErrCorrupt reports a malformed HPEZ payload.
var ErrCorrupt = errors.New("hpez: corrupt stream")

// ErrBadOptions reports invalid compression options.
var ErrBadOptions = errors.New("hpez: invalid options")

const (
	maxAnchorLevels = 6
	blockSize       = 32
	// freezeFactor is the residual ratio beyond which an axis is frozen.
	freezeFactor = 3.0
)

// Options configures compression.
type Options struct {
	// ErrorBound is the absolute error bound (required, > 0).
	ErrorBound float64
	// QP configures quantization index prediction. Zero value = off.
	QP core.Config
	// Radius is the quantization radius; 0 selects 2^15.
	Radius int32
	// Lossless selects the final back-end. Default Flate.
	Lossless lossless.Codec
	// LosslessSharded wraps the lossless stage in the parallel sharded
	// container (see sz3.Options); byte-identical at any worker count.
	LosslessSharded bool
	// Tune enables block-wise kind tuning, dimension freezing and
	// level-wise error bound tuning. Default on via DefaultOptions.
	Tune bool
	// Workers caps the number of goroutines used for entropy coding and
	// the QP sweeps. The interpolation level sweeps themselves stay
	// sequential (a point reads stencils across several axes; rows of
	// one class are independent, but nothing splits them yet).
	Workers int
	// Shards splits the entropy-coded index stream into independently
	// decodable Huffman shards. <= 1 keeps the legacy single-body stream.
	Shards int
	// Entropy selects the index entropy coder (zero value = legacy
	// Huffman; see sz3.Options.Entropy).
	Entropy entropy.Coder
	// Trace optionally captures internals for characterization.
	Trace *sz3.Trace
	// Obs, when non-nil, receives per-stage telemetry spans. Nil disables
	// observation; the output stream is byte-identical either way.
	Obs *obs.Span
}

// DefaultOptions returns the default tuned configuration.
func DefaultOptions(eb float64) Options {
	return Options{ErrorBound: eb, Radius: quantizer.DefaultRadius, Lossless: lossless.Flate, Tune: true}
}

// WithQP returns a copy of o with the paper's best-fit QP configuration.
func (o Options) WithQP() Options {
	o.QP = core.Default()
	return o
}

func (o *Options) normalize() error {
	if !(o.ErrorBound > 0) || math.IsInf(o.ErrorBound, 0) {
		return fmt.Errorf("%w: error bound must be positive and finite", ErrBadOptions)
	}
	if o.Radius == 0 {
		o.Radius = quantizer.DefaultRadius
	}
	if o.Radius < 2 {
		return fmt.Errorf("%w: radius must be >= 2", ErrBadOptions)
	}
	if o.Lossless == 0 {
		o.Lossless = lossless.Flate
	}
	if err := o.QP.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	if !o.Entropy.Valid() {
		return fmt.Errorf("%w: unknown entropy coder %d", ErrBadOptions, o.Entropy)
	}
	return nil
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
	qp      core.Config
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

// Compress compresses field f under the given options.
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tuneSp := opts.Obs.Child("choose")
	pl := buildPlan(f, opts)
	tuneSp.Add("levels", int64(pl.levels))
	tuneSp.End()

	// Pooled scratch (see internal/quantizer): every slot is written before
	// it is read, so recycled contents are fine.
	data := quantizer.GetFloatBuf(len(f.Data))
	defer quantizer.PutFloatBuf(data)
	copy(data, f.Data)
	q := quantizer.GetIndexBuf(len(data))
	defer quantizer.PutIndexBuf(q)
	var qp []int32
	var pred *core.Predictor
	var err error
	if opts.QP.Enabled() {
		pred, err = core.NewPredictor(opts.QP, opts.Radius)
		if err != nil {
			return nil, err
		}
		qp = quantizer.GetIndexBuf(len(data))
		defer quantizer.PutIndexBuf(qp)
	}

	// The "interp" wall-clock span covers the whole multi-axis sweep; the
	// accumulating "qp" child carries the kernelized per-class QP sweeps'
	// share of it (with per-worker children when parallel), and "quantize"
	// carries the outcome counters.
	interpSp := opts.Obs.Child("interp")
	var qpSp *obs.Span
	if pred != nil {
		qpSp = opts.Obs.ChildAccum("qp")
	}
	anchors, literals := compressCore(data, f.Dims(), pl, q, qp, pred, opts.Workers, qpSp)
	interpSp.Add("points", int64(len(data)))
	interpSp.End()
	quantSp := opts.Obs.Child("quantize")
	quantSp.Add("points", int64(len(data)))
	quantSp.Add("unpredictable", int64(len(literals)))
	quantSp.Add("anchors", int64(len(anchors)))
	quantSp.End()
	if pred != nil {
		qpSp.Add("compensated", int64(pred.Compensated))
	}

	if opts.Trace != nil {
		opts.Trace.Mode = sz3.ModeInterp
		opts.Trace.Levels = pl.levels
		opts.Trace.Q = append(opts.Trace.Q[:0], q...)
		if qp != nil {
			opts.Trace.QP = append(opts.Trace.QP[:0], qp...)
			opts.Trace.Compensated = pred.Compensated
		}
	}

	encSp := opts.Obs.Child("huffman")
	huff, kept := core.ChooseEncodingCoder(q, qp, opts.Entropy, opts.Shards, opts.Workers, encSp)
	encSp.End()
	if !kept {
		pl.qp = core.Config{}
	}

	buf := make([]byte, 0, 128+len(huff))
	buf = append(buf, byte(pl.qp.Mode), byte(pl.qp.Cond))
	buf = binary.AppendUvarint(buf, uint64(maxInt(pl.qp.MaxLevel, 0)))
	buf = binary.AppendUvarint(buf, uint64(pl.radius))
	buf = binary.AppendUvarint(buf, uint64(pl.levels))
	for l := 0; l < pl.levels; l++ {
		buf = append(buf, pl.frozen[l])
		buf = append(buf, pl.weights[l][:]...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.ebs[l]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(pl.blockCubic)))
	buf = append(buf, pl.blockCubic...)
	for _, w := range pl.blockWeights {
		buf = append(buf, w[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(anchors)))
	for _, v := range anchors {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(huff)))
	buf = append(buf, huff...)
	buf = binary.AppendUvarint(buf, uint64(len(literals)))
	for _, v := range literals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return core.CompressLossless(opts.Lossless, opts.LosslessSharded, buf, opts.Workers, opts.Obs)
}

// Decompress reconstructs a field with the given dims from an HPEZ
// payload.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	return DecompressWorkers(payload, dims, 1)
}

// DecompressWorkers is Decompress with up to workers goroutines applied to
// entropy decoding of sharded streams. The reconstruction is byte-identical
// for any worker count.
func DecompressWorkers(payload []byte, dims []int, workers int) (*grid.Field, error) {
	return DecompressObs(payload, dims, workers, nil)
}

// DecompressObs is DecompressWorkers with per-stage telemetry recorded on
// sp (which may be nil). The reconstruction is identical either way.
func DecompressObs(payload []byte, dims []int, workers int, sp *obs.Span) (*grid.Field, error) {
	n, err := grid.CheckDims(dims)
	if err != nil {
		return nil, err
	}
	buf, err := core.DecompressLossless(payload, lossless.PayloadLimit(n), workers, sp)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	var pl plan
	pl.qp = core.Config{Mode: core.Mode(buf[0]), Cond: core.Cond(buf[1])}
	buf = buf[2:]
	ml, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad qp level", ErrCorrupt)
	}
	pl.qp.MaxLevel = int(ml)
	buf = buf[k:]
	if err := pl.qp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	radius, k := binary.Uvarint(buf)
	if k <= 0 || radius < 2 || radius > 1<<30 {
		return nil, fmt.Errorf("%w: bad radius", ErrCorrupt)
	}
	pl.radius = int32(radius)
	buf = buf[k:]
	levels, k := binary.Uvarint(buf)
	if k <= 0 || levels == 0 || levels > 62 {
		return nil, fmt.Errorf("%w: bad level count", ErrCorrupt)
	}
	pl.levels = int(levels)
	buf = buf[k:]
	for l := 0; l < pl.levels; l++ {
		if len(buf) < 13 {
			return nil, fmt.Errorf("%w: short level header", ErrCorrupt)
		}
		pl.frozen = append(pl.frozen, buf[0])
		var w [4]uint8
		copy(w[:], buf[1:5])
		pl.weights = append(pl.weights, w)
		eb := math.Float64frombits(binary.LittleEndian.Uint64(buf[5:]))
		if !(eb > 0) || math.IsInf(eb, 0) {
			return nil, fmt.Errorf("%w: bad level eb", ErrCorrupt)
		}
		pl.ebs = append(pl.ebs, eb)
		buf = buf[13:]
	}
	nbits, k := binary.Uvarint(buf)
	if k <= 0 || nbits > uint64(len(buf)-k) {
		return nil, fmt.Errorf("%w: bad block table", ErrCorrupt)
	}
	buf = buf[k:]
	pl.blockGrid = blockGridDims(dims)
	if want := (numBlocks(pl.blockGrid) + 7) / 8; int(nbits) != want {
		return nil, fmt.Errorf("%w: block table %d bytes, want %d", ErrCorrupt, nbits, want)
	}
	pl.blockCubic = append([]byte(nil), buf[:nbits]...)
	buf = buf[nbits:]
	nb := numBlocks(pl.blockGrid)
	if len(buf) < 4*nb {
		return nil, fmt.Errorf("%w: short block weight table", ErrCorrupt)
	}
	pl.blockWeights = make([][4]uint8, nb)
	for i := range pl.blockWeights {
		copy(pl.blockWeights[i][:], buf[:4])
		buf = buf[4:]
	}

	na, k := binary.Uvarint(buf)
	if k <= 0 || na > uint64((len(buf)-k)/8) {
		return nil, fmt.Errorf("%w: bad anchor count", ErrCorrupt)
	}
	buf = buf[k:]
	anchors := make([]float64, na)
	for i := range anchors {
		anchors[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	buf = buf[int(na)*8:]

	hl, k := binary.Uvarint(buf)
	if k <= 0 || hl > uint64(len(buf)-k) {
		return nil, fmt.Errorf("%w: bad huffman length", ErrCorrupt)
	}
	buf = buf[k:]
	huffSp := sp.Child("huffman")
	enc, err := core.DecodeIndices(buf[:hl], workers)
	huffSp.Add("bytes_in", int64(hl))
	huffSp.Add("symbols", int64(len(enc)))
	huffSp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	buf = buf[hl:]
	if len(enc) != n {
		return nil, fmt.Errorf("%w: %d symbols for %d points", ErrCorrupt, len(enc), n)
	}
	nl, k := binary.Uvarint(buf)
	if k <= 0 || nl > uint64((len(buf)-k)/8) {
		return nil, fmt.Errorf("%w: bad literal count", ErrCorrupt)
	}
	buf = buf[k:]
	literals := make([]float64, nl)
	for i := range literals {
		literals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}

	out, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	var pred *core.Predictor
	if pl.qp.Enabled() {
		pred, err = core.NewPredictor(pl.qp, pl.radius)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	}
	interpSp := sp.Child("interp")
	var qpSp *obs.Span
	if pred != nil {
		qpSp = sp.ChildAccum("qp")
	}
	err = decompressCore(out.Data, dims, pl, enc, anchors, literals, pred, workers, qpSp)
	interpSp.Add("points", int64(n))
	interpSp.End()
	if err != nil {
		return nil, err
	}
	if pred != nil {
		qpSp.Add("compensated", int64(pred.Compensated))
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
