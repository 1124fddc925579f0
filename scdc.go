// Package scdc (Scientific Data Compression) is an error-bounded lossy
// compression library for multi-dimensional floating-point scientific
// data, built around adaptive Quantization index Prediction (QP).
//
// It provides from-scratch implementations of four interpolation-based
// compressors — SZ3, QoZ, HPEZ and MGARD — each of which can be combined
// with QP, the reversible quantization-index transform of "Improving the
// Efficiency of Interpolation-based Scientific Data Compressors with
// Adaptive Quantization Index Prediction" (IPDPS 2025). QP raises
// compression ratios by up to tens of percent at bit-identical
// decompressed output. Three transform-based comparators (ZFP, a
// TTHRESH-like DCT codec, and a SPERR-like wavelet codec) are included
// for benchmarking.
//
// Basic usage:
//
//	stream, err := scdc.Compress(data, []int{nx, ny, nz}, scdc.Options{
//	    Algorithm:  scdc.SZ3,
//	    ErrorBound: 1e-3,
//	    QP:         scdc.DefaultQP(),
//	})
//	res, err := scdc.Decompress(stream)
//
// Every compressor guarantees max|x - x'| <= ErrorBound except TTHRESH,
// which follows the original's norm-based control (RMSE <= ErrorBound/2).
package scdc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/hpez"
	"scdc/internal/lossless"
	"scdc/internal/mgard"
	"scdc/internal/obs"
	"scdc/internal/qoz"
	"scdc/internal/sperr"
	"scdc/internal/sz3"
	"scdc/internal/tthresh"
	"scdc/internal/verdict"
	"scdc/internal/zfp"
)

// Algorithm selects a compressor.
type Algorithm byte

const (
	// SZ3 is the multilevel spline-interpolation compressor (default).
	SZ3 Algorithm = iota
	// QoZ is SZ3 plus anchor grid and quality-oriented auto-tuning.
	QoZ
	// HPEZ adds multi-dimensional interpolation with block-wise tuning.
	HPEZ
	// MGARD is the multilevel finite-element compressor with L2
	// projection.
	MGARD
	// ZFP is the block-transform comparator (fixed-accuracy mode).
	ZFP
	// TTHRESH is the global-transform comparator (norm-based control).
	TTHRESH
	// SPERR is the wavelet comparator with outlier correction.
	SPERR
	numAlgorithms
)

var algorithmNames = [...]string{"SZ3", "QoZ", "HPEZ", "MGARD", "ZFP", "TTHRESH", "SPERR"}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("algorithm(%d)", byte(a))
}

// ParseAlgorithm resolves a case-sensitive algorithm name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for i, n := range algorithmNames {
		if n == name {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown algorithm %q", ErrBadOptions, name)
}

// SupportsQP reports whether the algorithm's pipeline has a quantization
// index stage that QP can intercept (the four interpolation-based
// compressors).
func (a Algorithm) SupportsQP() bool { return a <= MGARD }

// QPMode selects the QP prediction dimension (paper Figure 7).
type QPMode byte

const (
	// QPOff disables quantization index prediction.
	QPOff QPMode = iota
	// QP1DBack predicts along the interpolation direction.
	QP1DBack
	// QP1DTop predicts along the slower orthogonal axis.
	QP1DTop
	// QP1DLeft predicts along the faster orthogonal axis.
	QP1DLeft
	// QP2D is 2D Lorenzo in the orthogonal plane (the paper's choice).
	QP2D
	// QP3D is 3D Lorenzo.
	QP3D
)

// QPCondition selects the QP prediction condition (paper Figure 8).
type QPCondition byte

const (
	// QPCaseI predicts everywhere.
	QPCaseI QPCondition = iota
	// QPCaseII skips unpredictable neighbors.
	QPCaseII
	// QPCaseIII additionally requires same-sign left/top neighbors (the
	// paper's choice).
	QPCaseIII
	// QPCaseIV requires all three neighbors to share a sign.
	QPCaseIV
)

// QPConfig configures quantization index prediction.
type QPConfig struct {
	Mode      QPMode
	Condition QPCondition
	// MaxLevel restricts prediction to interpolation levels <= MaxLevel;
	// 0 means no restriction. The paper's best fit is 2.
	MaxLevel int
}

// DefaultQP returns the paper's best-fit configuration: 2D Lorenzo,
// Case III, levels 1-2 (Algorithm 2).
func DefaultQP() QPConfig {
	return QPConfig{Mode: QP2D, Condition: QPCaseIII, MaxLevel: 2}
}

func (q QPConfig) toCore() core.Config {
	return core.Config{Mode: core.Mode(q.Mode), Cond: core.Cond(q.Condition), MaxLevel: q.MaxLevel}
}

// LosslessCodec selects the final lossless back-end for the
// interpolation-based algorithms. Decompression dispatches on the
// stream's codec tag, so reading needs no option and every earlier
// stream — including the forced flate, LZ and Huffman forms earlier
// releases could write — keeps decoding.
type LosslessCodec byte

const (
	// LosslessDefault (the zero value) is the DEFLATE back-end (tag 1),
	// which every earlier release reads. It runs DEFLATE 64 KB at a time
	// and stores the segments it cannot shrink; a plaintext whose every
	// segment compresses gets the same bytes as earlier releases wrote.
	LosslessDefault LosslessCodec = iota
	// LosslessStore skips lossless compression (ablation point).
	LosslessStore
	// LosslessAuto picks store, Huffman or flate from a sampled size
	// estimate, preferring the faster codec when the estimates are within
	// a couple of percent. Past 64 KB the stage is sharded — the tag-4
	// container with a pick per shard, or Huffman's own shards under one
	// table.
	LosslessAuto
)

// losslessCodecs maps each LosslessCodec to its name and engine-level
// codec.
var losslessCodecs = [...]struct {
	name  string
	codec lossless.Codec
}{
	LosslessDefault: {"default", lossless.Flate},
	LosslessStore:   {"store", lossless.Store},
	LosslessAuto:    {"auto", lossless.Auto},
}

// String implements fmt.Stringer.
func (c LosslessCodec) String() string {
	if int(c) < len(losslessCodecs) {
		return losslessCodecs[c].name
	}
	return fmt.Sprintf("lossless(%d)", byte(c))
}

// ParseLosslessCodec resolves a lower-case codec name ("default",
// "store", "auto"; "" is "default").
func ParseLosslessCodec(name string) (LosslessCodec, error) {
	if name == "" {
		return LosslessDefault, nil
	}
	for i, e := range losslessCodecs {
		if e.name == name {
			return LosslessCodec(i), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown lossless codec %q", ErrBadOptions, name)
}

// Options configures Compress.
type Options struct {
	// Algorithm selects the compressor. Default SZ3.
	Algorithm Algorithm
	// ErrorBound is the absolute error bound. Exactly one of ErrorBound
	// and RelativeBound must be positive.
	ErrorBound float64
	// RelativeBound, when positive, sets the bound to
	// RelativeBound * (max - min) of the input.
	RelativeBound float64
	// QP configures quantization index prediction for the
	// interpolation-based algorithms; the zero value disables it.
	QP QPConfig
	// Workers caps the number of goroutines CompressChunked spreads its
	// chunks over, each chunk compressed on one. Compress ignores it: a
	// field is compressed on the calling goroutine. <= 1 runs
	// sequentially. The produced stream is byte-identical for any worker
	// count.
	Workers int
	// Shards is accepted and ignored: no value changes the stream. Earlier
	// releases split the index stream into this many Huffman shards under
	// one code table (index sub-format 0x00 0x01); Decompress still reads
	// such streams, but the layout bought no parallel decode and only grew
	// the stream, so no value writes it now.
	Shards int
	// Lossless selects the final lossless back-end for the
	// interpolation-based algorithms. The zero value (LosslessDefault)
	// writes DEFLATE (tag 1), storing the 64 KB segments it cannot shrink;
	// LosslessAuto picks the codec by measurement and shards the stage
	// past 64 KB.
	Lossless LosslessCodec
}

// Result is a decompressed field.
type Result struct {
	// Data holds the samples in row-major order (first dim slowest).
	Data []float64
	// Dims are the field extents.
	Dims []int
	// Algorithm is the compressor that produced the stream.
	Algorithm Algorithm
	// Stats carries per-stage telemetry when the stream was decompressed
	// through DecompressObserved; nil otherwise.
	Stats *CompressStats
}

// Float32 converts the samples to float32.
func (r *Result) Float32() []float32 {
	out := make([]float32, len(r.Data))
	for i, v := range r.Data {
		out[i] = float32(v)
	}
	return out
}

// The three verdicts. Every error this package returns wraps exactly one
// of them, whichever layer of the codec stack raised it (they are the
// values of internal/verdict, which every layer wraps): a decode error —
// Decompress, DecompressParallel, DecompressObserved, DecompressChunk,
// Inspect — is ErrCorrupt or ErrIntegrity, a compress error is
// ErrBadOptions. Test with errors.Is.
var (
	// ErrCorrupt reports a stream that is structurally wrong at any depth:
	// a malformed container, or a payload its lossless, entropy or
	// prediction stage cannot decode — truncated, hostile, or not written
	// by this package. Re-fetching will not help.
	ErrCorrupt = verdict.ErrCorrupt

	// ErrIntegrity reports a well-formed container whose CRC32C footer does
	// not match the stream contents — the bytes were damaged in storage or
	// transit. It is distinct from ErrCorrupt (structural damage) so callers
	// can tell "re-fetch the stream" from "the writer produced garbage". A
	// footer is checked before any field it covers is interpreted, so a
	// stream whose footers (the container's and its chunks') all match
	// never fails with it.
	ErrIntegrity = verdict.ErrIntegrity

	// ErrBadOptions reports options or input a compress call rejected (and
	// an out-of-range chunk index given to DecompressChunk).
	ErrBadOptions = verdict.ErrBadOptions
)

var magic = [4]byte{'S', 'C', 'D', 'C'}

const (
	// formatV1 is the legacy footer-less container, still readable.
	formatV1 = 1
	// formatVersion is the current container version: identical to v1 plus
	// a 4-byte CRC32C (Castagnoli) footer over every preceding byte.
	formatVersion = 2

	// footerSize is the v2 trailer: uint32 LE CRC32C.
	footerSize = 4

	// kindChunked in the kind byte marks a CompressChunked container; every
	// other value is the Algorithm of a plain stream.
	kindChunked = 0xFF

	// maxDim bounds every header-declared extent.
	maxDim = 1 << 40

	// maxPointsPerByte caps the header-declared point count against the
	// available payload before anything is allocated. The tightest possible
	// encoding is ~1 Huffman bit per point followed by the lossless back-end
	// (at most ~2^13x on constant input), so 2^17 points per payload byte is
	// beyond any stream the writers can produce; headers claiming more are
	// hostile or damaged.
	maxPointsPerByte = 1 << 17
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the container prologue: magic, version, kind byte
// (an Algorithm or kindChunked), ndims, uvarint dims.
func appendHeader(dst []byte, kind byte, dims []int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, formatVersion, kind, byte(len(dims)))
	for _, d := range dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// appendFooter appends the v2 CRC32C footer covering stream.
func appendFooter(stream []byte) []byte {
	return binary.LittleEndian.AppendUint32(stream, crc32.Checksum(stream, castagnoli))
}

// header is a container prologue as parseHeader returns it.
type header struct {
	size    int // of the whole stream, footer included
	version byte
	kind    byte // an Algorithm, or kindChunked
	dims    []int
	points  int    // product of dims
	payload []byte // what follows the dims, footer stripped
}

// parseHeader is the one reader of the container prologue; every decode
// entry point and Inspect go through it, for whole streams and for the
// chunks of a chunked container alike. It checks the magic, the version
// and (v2) the CRC32C footer — integrity first, so a damaged stream is
// ErrIntegrity before any field is interpreted — then the kind byte, 1 to
// grid.MaxDims extents of 1..maxDim each, that their product fits an int
// and that it is plausible for the payload present (maxPointsPerByte), all
// before anything proportional to a declared size is allocated. verify is
// false only for a chunk whose bytes the enclosing container's footer has
// already covered.
func parseHeader(stream []byte, verify bool) (h header, err error) {
	if len(stream) < 7 || [4]byte(stream[:4]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.size = len(stream)
	switch h.version = stream[4]; h.version {
	case formatV1:
	case formatVersion:
		if len(stream) < 5+footerSize {
			return h, fmt.Errorf("%w: missing footer", ErrCorrupt)
		}
		body := stream[:len(stream)-footerSize]
		if verify {
			want := binary.LittleEndian.Uint32(stream[len(body):])
			if got := crc32.Checksum(body, castagnoli); got != want {
				return h, fmt.Errorf("%w: CRC32C %08x, footer says %08x", ErrIntegrity, got, want)
			}
		}
		stream = body
	default:
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, h.version)
	}
	if len(stream) < 7 {
		return h, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	h.kind = stream[5]
	if h.kind != kindChunked && Algorithm(h.kind) >= numAlgorithms {
		return h, fmt.Errorf("%w: unknown algorithm %d", ErrCorrupt, h.kind)
	}
	nd := int(stream[6])
	if nd < 1 || nd > grid.MaxDims {
		return h, fmt.Errorf("%w: bad dimensionality %d", ErrCorrupt, nd)
	}
	h.payload = stream[7:]
	h.dims = make([]int, nd)
	for i := range h.dims {
		v, k := binary.Uvarint(h.payload)
		if k <= 0 || v == 0 || v > maxDim {
			return h, fmt.Errorf("%w: bad dims", ErrCorrupt)
		}
		h.dims[i] = int(v)
		h.payload = h.payload[k:]
	}
	if h.points, err = grid.CheckDims(h.dims); err != nil {
		return h, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(h.payload) == 0 || h.points > len(h.payload)*maxPointsPerByte {
		return h, fmt.Errorf("%w: %d points declared for %d payload bytes", ErrCorrupt, h.points, len(h.payload))
	}
	return h, nil
}

// Compress compresses a row-major field with the given dims (1 to 4
// dimensions, first dim slowest). Every error it — and CompressFloat32,
// CompressChunked and the WithStats forms — returns is ErrBadOptions: the
// options, the dims, or a bound that does not resolve to a positive finite
// number on this data.
func Compress(data []float64, dims []int, opts Options) ([]byte, error) {
	return compressSpan(data, dims, opts, nil)
}

// compressSpan is the Compress body with telemetry attached to sp (nil for
// Compress itself). CompressChunked reuses it so each chunk records under
// its own span instead of opening a top-level one per chunk.
func compressSpan(data []float64, dims []int, opts Options, sp *obs.Span) ([]byte, error) {
	f, err := grid.FromSlice(data, dims...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	eb, err := resolveBound(f, opts)
	if err != nil {
		return nil, err
	}
	if opts.Algorithm >= numAlgorithms {
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrBadOptions, opts.Algorithm)
	}
	if opts.QP.Mode != QPOff && !opts.Algorithm.SupportsQP() {
		return nil, fmt.Errorf("%w: %v does not support QP", ErrBadOptions, opts.Algorithm)
	}
	if int(opts.Lossless) >= len(losslessCodecs) {
		return nil, fmt.Errorf("%w: unknown lossless codec %d", ErrBadOptions, opts.Lossless)
	}
	if opts.Lossless != LosslessDefault && !opts.Algorithm.SupportsQP() {
		return nil, fmt.Errorf("%w: %v has no configurable lossless back-end (codec %v)", ErrBadOptions, opts.Algorithm, opts.Lossless)
	}

	// The four interpolation-based engines share one back-end; its options
	// are set once here.
	be := core.DefaultBackend()
	be.QP = opts.QP.toCore()
	be.Lossless = losslessCodecs[opts.Lossless].codec
	be.Obs = sp

	var payload []byte
	switch opts.Algorithm {
	case SZ3:
		o := sz3.DefaultOptions(eb)
		o.Backend = be
		payload, err = sz3.Compress(f, o)
	case QoZ:
		o := qoz.DefaultOptions(eb)
		o.Backend = be
		payload, err = qoz.Compress(f, o)
	case HPEZ:
		o := hpez.DefaultOptions(eb)
		o.Backend = be
		payload, err = hpez.Compress(f, o)
	case MGARD:
		o := mgard.DefaultOptions(eb)
		o.Backend = be
		payload, err = mgard.Compress(f, o)
	case ZFP:
		esp := sp.Child("transform")
		payload, err = zfp.Compress(f, zfp.Options{Tolerance: eb})
		esp.End()
	case TTHRESH:
		esp := sp.Child("transform")
		payload, err = tthresh.Compress(f, tthresh.DefaultOptions(eb))
		esp.End()
	case SPERR:
		esp := sp.Child("transform")
		payload, err = sperr.Compress(f, sperr.DefaultOptions(eb))
		esp.End()
	}
	if err != nil {
		return nil, err
	}

	hdr := appendHeader(make([]byte, 0, 32), byte(opts.Algorithm), dims)
	out := appendFooter(append(hdr, payload...))
	sp.Add("raw_bytes", int64(len(data)*8))
	sp.Add("stream_bytes", int64(len(out)))
	return out, nil
}

// CompressFloat32 is Compress for single-precision input.
func CompressFloat32(data []float32, dims []int, opts Options) ([]byte, error) {
	f, err := grid.FromFloat32(data, dims...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	return Compress(f.Data, dims, opts)
}

// Decompress reconstructs a field from any stream this package writes:
// a plain stream (Compress, CompressFloat32) or a chunked container
// (CompressChunked). Every error it — and DecompressParallel and
// DecompressObserved — returns is ErrIntegrity (a footer does not match
// its bytes; checked first) or ErrCorrupt (anything else, at any depth of
// the stream).
func Decompress(stream []byte) (*Result, error) {
	return decompress(stream, 1, nil)
}

// DecompressParallel is Decompress on up to workers goroutines. A chunked
// container decodes its chunks on them, each chunk on one; a plain stream
// decodes on the calling goroutine and ignores workers. The
// reconstruction is byte-identical for any worker count; workers <= 1
// decompresses sequentially.
func DecompressParallel(stream []byte, workers int) (*Result, error) {
	return decompress(stream, workers, nil)
}

// decompress is the one door out: it reads the header, dispatches on the
// kind byte and, when rec is non-nil, records the decode under a top-level
// span named for the operation and attaches the stats to the Result.
func decompress(stream []byte, workers int, rec *obs.Recorder) (*Result, error) {
	h, err := parseHeader(stream, true)
	if err != nil {
		return nil, err
	}
	op, decode := "decompress", decodeField
	if h.kind == kindChunked {
		op, decode = "decompress_chunked", func(h header, sp *obs.Span) (*Result, error) { return decodeChunks(h, workers, sp) }
	}
	sp := rec.Span(op)
	res, err := decode(h, sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		res.Stats = newStats(op, res.Algorithm, res.Dims, len(res.Data), len(stream), rec.Report())
	}
	return res, nil
}

// decodeField decodes a plain stream's payload with its engine, telemetry
// attached to sp (which may be nil).
func decodeField(h header, sp *obs.Span) (*Result, error) {
	var f *grid.Field
	var err error
	alg := Algorithm(h.kind)
	switch alg {
	case SZ3:
		f, err = sz3.DecompressObs(h.payload, h.dims, sp)
	case QoZ:
		f, err = qoz.DecompressObs(h.payload, h.dims, sp)
	case HPEZ:
		f, err = hpez.DecompressObs(h.payload, h.dims, sp)
	case MGARD:
		f, err = mgard.DecompressObs(h.payload, h.dims, sp)
	case ZFP:
		dsp := sp.Child("transform")
		f, err = zfp.Decompress(h.payload, h.dims)
		dsp.End()
	case TTHRESH:
		dsp := sp.Child("transform")
		f, err = tthresh.Decompress(h.payload, h.dims)
		dsp.End()
	case SPERR:
		dsp := sp.Child("transform")
		f, err = sperr.Decompress(h.payload, h.dims)
		dsp.End()
	}
	if err != nil {
		return nil, err
	}
	sp.Add("stream_bytes", int64(h.size))
	sp.Add("raw_bytes", int64(len(f.Data)*8))
	return &Result{Data: f.Data, Dims: h.dims, Algorithm: alg}, nil
}

// resolveBound turns the options into the absolute bound every engine
// runs at, and is the one place that bound is validated: whatever it
// returns is positive and finite.
func resolveBound(f *grid.Field, opts Options) (float64, error) {
	abs, rel := opts.ErrorBound, opts.RelativeBound
	eb, rng := abs, 0.0
	switch {
	case abs > 0 && rel > 0:
		return 0, fmt.Errorf("%w: set only one of ErrorBound and RelativeBound", ErrBadOptions)
	case abs > 0:
	case rel > 0:
		if rng = f.Range(); rng == 0 {
			rng = 1 // constant field: any positive bound works
		}
		eb = rel * rng
	default:
		return 0, fmt.Errorf("%w: an error bound is required", ErrBadOptions)
	}
	if !core.ValidBound(eb) {
		return 0, fmt.Errorf("%w: error bound %g (ErrorBound %g; RelativeBound %g over value range %g) is not positive and finite",
			ErrBadOptions, eb, abs, rel, rng)
	}
	return eb, nil
}
