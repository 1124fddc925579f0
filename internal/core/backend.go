package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/lossless"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// This file is the index-stream back-end shared by SZ3, QoZ, HPEZ and
// MGARD: everything after "predict + quantize". The paper's QP stage sits
// at the same place in every base compressor — between quantization and
// the entropy coder — so the options that steer it, the scratch it works
// on and the stream blocks it writes are defined once here. An engine
// keeps its own header fields and its predict+quantize sweeps; the
// layout table is DESIGN.md §5.

// Backend holds the options every engine shares. Each engine's Options
// embeds it next to the engine's own fields.
type Backend struct {
	// QP configures quantization index prediction. Zero value = off.
	QP Config
	// Radius is the quantization radius; 0 selects the SZ3 default 2^15.
	Radius int32
	// Lossless selects the final lossless back-end. Default Flate, the
	// legacy whole-buffer format the golden corpus pins. lossless.Auto
	// picks the cheapest of store, Huffman and flate from a sampled size
	// estimate, per shard of the parallel sharded container once the
	// buffer is big enough to split (CompressLossless).
	Lossless lossless.Codec
	// Workers caps the number of goroutines used inside one Compress call
	// by the back end: Huffman shard encoding (Shards > 1) and the shards
	// of the lossless container Auto writes. The prediction and QP sweeps
	// always run on the calling goroutine. <= 1 runs sequentially. The
	// output is byte-identical for any worker count.
	Workers int
	// Shards splits the entropy-coded index stream into this many
	// independently decodable Huffman shards sharing one code table, so
	// decompression can fan out. <= 1 keeps the legacy single-body stream.
	Shards int
	// Trace, when non-nil, captures internals for characterization.
	Trace *Trace
	// Obs, when non-nil, receives per-stage telemetry spans (choose,
	// interp/lorenzo, qp, quantize, huffman, lossless). Nil disables
	// observation at zero hot-path cost; the output stream is byte-
	// identical either way.
	Obs *obs.Span
}

// Trace captures compressor internals for the paper's characterization
// experiments (Figures 3–5).
type Trace struct {
	// Q receives the stored quantization symbols (offset by Radius,
	// 0 = unpredictable), one per data point.
	Q []int32
	// QP receives the transformed symbols Q' when QP ran, and is emptied
	// when it did not.
	QP []int32
	// Lorenzo reports that SZ3 fell back to its Lorenzo predictor.
	Lorenzo bool
	// Levels reports the number of interpolation levels.
	Levels int
	// Compensated reports how many points received a nonzero compensation.
	Compensated int
}

// DefaultBackend returns the default shared options: QP off, radius
// 2^15, whole-buffer flate.
func DefaultBackend() Backend {
	return Backend{Radius: quantizer.DefaultRadius, Lossless: lossless.Flate}
}

// WithQP returns a copy of b with the paper's best-fit QP configuration
// enabled.
func (b Backend) WithQP() Backend {
	b.QP = Default()
	return b
}

// maxRadius is the largest quantization radius a stream may carry: Normalize
// rejects a larger one on the way in and DecodeQP on the way out.
const maxRadius = 1 << 30

// ValidBound reports whether eb is usable as an error bound.
func ValidBound(eb float64) bool { return eb > 0 && !math.IsInf(eb, 0) }

// Normalize fills defaults and validates the shared options together
// with the engine's error bound eb.
func (b *Backend) Normalize(eb float64) error {
	if !ValidBound(eb) {
		return fmt.Errorf("%w: core: error bound %g must be positive and finite", verdict.ErrBadOptions, eb)
	}
	if b.Radius == 0 {
		b.Radius = quantizer.DefaultRadius
	}
	if b.Radius < 2 || b.Radius > maxRadius {
		return fmt.Errorf("%w: core: radius %d outside [2, %d]", verdict.ErrBadOptions, b.Radius, maxRadius)
	}
	if b.Lossless == 0 {
		b.Lossless = lossless.Flate
	}
	// The pool reads a count <= 0 as GOMAXPROCS; here it means sequential.
	b.Workers = max(b.Workers, 1)
	return b.QP.Validate()
}

// Stream is what an engine hands Encode besides its Sweep.
type Stream struct {
	// Pre and Post are the engine's own header bytes before and after the
	// shared QP-config/radius block.
	Pre, Post []byte
	// Side holds the values stored losslessly on the coarse lattice. It is
	// written as a float block, and counted on the quantize span under
	// SideName ("anchors", "coarse"), when SideName is non-empty.
	Side     []float64
	SideName string
	// ForceQP keeps the QP-transformed indices even when the size
	// estimate says they do not pay.
	ForceQP bool
	// Levels and Lorenzo are reported on Trace only.
	Levels  int
	Lorenzo bool
}

// Encode ends the sweeps and writes the stream: it publishes the stage,
// quantize and qp counters, fills Trace, picks and encodes the index
// array (ChooseEncodingCoder, under the "huffman" span), assembles
//
//	Pre | qp config, radius | Post | [Side] | index block | literals
//
// from the symbols and literals the sweeps left on sw, and runs the
// lossless stage over it.
func (b *Backend) Encode(sw *Sweep, s Stream) ([]byte, error) {
	sw.finish()
	// Quantization is fused into the engines' prediction sweeps, so the
	// "quantize" span only carries its outcome counters.
	quantSp := b.Obs.Child("quantize")
	quantSp.Add("points", int64(len(sw.Data)))
	quantSp.Add("unpredictable", int64(len(sw.Lits)))
	if s.SideName != "" {
		quantSp.Add(s.SideName, int64(len(s.Side)))
	}
	quantSp.End()
	if t := b.Trace; t != nil {
		t.Lorenzo, t.Levels = s.Lorenzo, s.Levels
		t.Q = append(t.Q[:0], sw.Sym...)
		t.QP, t.Compensated = t.QP[:0], 0
		if sw.Pred != nil {
			t.QP = append(t.QP, sw.QP...)
			t.Compensated = sw.Pred.Compensated
		}
	}

	q, qp := sw.Sym, sw.QP
	forced := s.ForceQP && qp != nil
	if forced {
		q, qp = qp, nil
	}
	encSp := b.Obs.Child("huffman")
	idx, kept := ChooseEncodingCoder(q, qp, entropy.CoderHuffman, b.Shards, b.Workers, encSp)
	encSp.End()
	cfg := b.QP
	if !kept && !forced {
		cfg = Config{}
	}

	buf := make([]byte, 0, len(s.Pre)+len(s.Post)+len(idx)+8*(len(s.Side)+len(sw.Lits))+48)
	buf = append(buf, s.Pre...)
	buf = append(buf, byte(cfg.Mode), byte(cfg.Cond))
	buf = binary.AppendUvarint(buf, uint64(max(cfg.MaxLevel, 0)))
	buf = binary.AppendUvarint(buf, uint64(b.Radius))
	buf = append(buf, s.Post...)
	if s.SideName != "" {
		buf = appendFloats(buf, s.Side)
	}
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	buf = append(buf, idx...)
	buf = appendFloats(buf, sw.Lits)
	return CompressLossless(b.Lossless, buf, b.Workers, b.Obs)
}

// appendFloats writes a float block: uvarint count, then the values as
// 8-byte IEEE754 little-endian.
func appendFloats(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Reader reverses Encode for a field of n points. Every error it returns
// is verdict.ErrCorrupt. The engine reads its own header fields with
// Bytes/Uvarint/Bound, in stream order around DecodeQP, then calls
// DecodeBlocks, runs its sweeps on Sweep and returns the sweep's Finish.
type Reader struct {
	// QP and Radius are set by DecodeQP.
	QP     Config
	Radius int32
	// Side, Indices and Literals are set by DecodeBlocks. The engine's
	// inverse sweeps overwrite Indices in place with the recovered
	// original symbols.
	Side, Literals []float64
	Indices        []int32

	// pred is set by DecodeBlocks when the stream kept QP.
	pred       *Predictor
	buf        []byte
	dims       []int
	n, workers int
	sp         *obs.Span
}

// DecodeStream checks dims, peels the lossless layer off payload
// (bounded by lossless.PayloadLimit of the point count, under a
// "lossless" child span of sp) and returns a Reader over the plaintext.
// Sharded index and lossless bodies decode on up to workers goroutines;
// workers <= 1 decodes sequentially.
func DecodeStream(payload []byte, dims []int, workers int, sp *obs.Span) (*Reader, error) {
	n, err := grid.CheckDims(dims)
	if err != nil {
		return nil, err
	}
	workers = max(workers, 1) // as in Normalize
	buf, err := DecompressLossless(payload, lossless.PayloadLimit(n), workers, sp)
	if err != nil {
		return nil, err
	}
	return &Reader{buf: buf, dims: dims, n: n, workers: workers, sp: sp}, nil
}

// Bytes consumes the next k header bytes.
func (r *Reader) Bytes(k int, what string) ([]byte, error) {
	if k < 0 || k > len(r.buf) {
		return nil, fmt.Errorf("%w: core: short %s", verdict.ErrCorrupt, what)
	}
	b := r.buf[:k]
	r.buf = r.buf[k:]
	return b, nil
}

// Uvarint consumes a uvarint header field that must lie in [lo, hi].
func (r *Reader) Uvarint(lo, hi uint64, what string) (uint64, error) {
	v, k := binary.Uvarint(r.buf)
	if k <= 0 || v < lo || v > hi {
		return 0, fmt.Errorf("%w: core: bad %s", verdict.ErrCorrupt, what)
	}
	r.buf = r.buf[k:]
	return v, nil
}

// Bound consumes an 8-byte error bound, which must be positive and finite.
func (r *Reader) Bound(what string) (float64, error) {
	b, err := r.Bytes(8, what)
	if err != nil {
		return 0, err
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if !ValidBound(eb) {
		return 0, fmt.Errorf("%w: core: bad %s", verdict.ErrCorrupt, what)
	}
	return eb, nil
}

// DecodeQP consumes the shared QP-config/radius block.
func (r *Reader) DecodeQP() error {
	b, err := r.Bytes(2, "qp config")
	if err != nil {
		return err
	}
	ml, err := r.Uvarint(0, math.MaxInt, "qp level")
	if err != nil {
		return err
	}
	r.QP = Config{Mode: Mode(b[0]), Cond: Cond(b[1]), MaxLevel: int(ml)}
	if !r.QP.valid() {
		return fmt.Errorf("%w: core: bad qp config (mode %d, condition %d)", verdict.ErrCorrupt, b[0], b[1])
	}
	radius, err := r.Uvarint(2, maxRadius, "radius")
	r.Radius = int32(radius)
	return err
}

// DecodeBlocks consumes the side block (when side names one), the index
// block — entropy-decoded under a "huffman" child span and required to
// declare exactly n symbols before any is allocated — and the literal
// block, then builds the predictor the stream's QP config calls for.
func (r *Reader) DecodeBlocks(side string) error {
	var err error
	if side != "" {
		if r.Side, err = r.decodeFloats(side); err != nil {
			return err
		}
	}
	hl, err := r.Uvarint(0, uint64(len(r.buf)), "index length")
	if err != nil {
		return err
	}
	body, err := r.Bytes(int(hl), "index block")
	if err != nil {
		return err
	}
	huffSp := r.sp.Child("huffman")
	r.Indices, err = DecodeIndices(body, r.n, r.workers)
	huffSp.Add("bytes_in", int64(hl))
	huffSp.Add("symbols", int64(len(r.Indices)))
	huffSp.End()
	if err != nil {
		return err
	}
	if r.Literals, err = r.decodeFloats("literal"); err != nil {
		return err
	}
	if r.QP.Enabled() {
		// DecodeQP has checked the config, NewPredictor's only failure.
		r.pred, _ = NewPredictor(r.QP, r.Radius)
	}
	return nil
}

// decodeFloats consumes a float block; the count is checked against the
// bytes actually present before it sizes the allocation.
func (r *Reader) decodeFloats(what string) ([]float64, error) {
	nv, err := r.Uvarint(0, uint64(len(r.buf)/8), what+" count")
	if err != nil {
		return nil, err
	}
	raw, err := r.Bytes(int(nv)*8, what+" block")
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vals, nil
}
