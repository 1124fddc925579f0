package scdc

import (
	"scdc/internal/obs"
	"scdc/internal/obs/agg"
)

// StatsSchema identifies the JSON wire schema of CompressStats. The
// structural keys (schema, op, algorithm, dims, points, raw_bytes,
// stream_bytes, ratio, bits_per_value, report) and the report node keys
// (name, ns, counters, gauges, children) are stable; new counters and
// gauges may appear over time without a schema bump (DESIGN.md §7).
const StatsSchema = "scdc-stats/1"

// CompressStats summarizes one observed compression or decompression:
// the stream-level ratios plus the full per-stage telemetry report. It
// marshals to the stable StatsSchema JSON layout.
type CompressStats struct {
	// Schema is always StatsSchema.
	Schema string `json:"schema"`
	// Op is "compress", "compress_chunked", "decompress" or — for a chunked
	// container — "decompress_chunked".
	Op string `json:"op"`
	// Algorithm is the compressor name (Algorithm.String()).
	Algorithm string `json:"algorithm"`
	// Dims are the field extents.
	Dims []int `json:"dims"`
	// Points is the number of samples.
	Points int `json:"points"`
	// RawBytes is the uncompressed size (8 bytes per sample).
	RawBytes int64 `json:"raw_bytes"`
	// StreamBytes is the container size including headers and footers.
	StreamBytes int64 `json:"stream_bytes"`
	// Ratio is RawBytes / StreamBytes.
	Ratio float64 `json:"ratio"`
	// BitsPerValue is the bit rate: 8 * StreamBytes / Points.
	BitsPerValue float64 `json:"bits_per_value"`
	// Report is the span tree recorded during the operation.
	Report *obs.Report `json:"report"`
}

// newStats assembles a CompressStats from an operation's geometry and its
// recorded report.
func newStats(op string, alg Algorithm, dims []int, points, streamBytes int, rep *obs.Report) *CompressStats {
	s := &CompressStats{
		Schema:      StatsSchema,
		Op:          op,
		Algorithm:   alg.String(),
		Dims:        dims,
		Points:      points,
		RawBytes:    int64(points) * 8,
		StreamBytes: int64(streamBytes),
		Report:      rep,
	}
	if streamBytes > 0 {
		s.Ratio = float64(s.RawBytes) / float64(s.StreamBytes)
	}
	if points > 0 {
		s.BitsPerValue = 8 * float64(streamBytes) / float64(points)
	}
	return s
}

// Publish folds the stats into an aggregation registry: the stream-level
// summary lands in the per-(algorithm, op) counters and gauges, and every
// span of the report becomes an observation in the per-stage latency
// histograms. Nil stats and nil registries no-op, so callers can publish
// unconditionally.
func (s *CompressStats) Publish(reg *agg.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.Publish(agg.Meta{
		Op:           s.Op,
		Algorithm:    s.Algorithm,
		Points:       s.Points,
		RawBytes:     s.RawBytes,
		StreamBytes:  s.StreamBytes,
		Ratio:        s.Ratio,
		BitsPerValue: s.BitsPerValue,
	}, s.Report)
}

// observe is the telemetry frame of the two compress stats doors: it runs
// body under a top-level span named op on a private recorder and returns
// the summary with the stream. Compress and CompressChunked run their
// bodies on a nil span instead, so an unobserved call records nothing.
func observe(op string, alg Algorithm, data []float64, dims []int, body func(*obs.Span) ([]byte, error)) ([]byte, *CompressStats, error) {
	rec := obs.New()
	sp := rec.Span(op)
	out, err := body(sp)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return out, newStats(op, alg, dims, len(data), len(out), rec.Report()), nil
}

// CompressWithStats is Compress plus a telemetry summary of the call: the
// per-stage span tree, compression ratio and bit rate. The stream is
// byte-identical to Compress's. Publish folds the summary into an
// aggregation registry.
func CompressWithStats(data []float64, dims []int, opts Options) ([]byte, *CompressStats, error) {
	return observe("compress", opts.Algorithm, data, dims, func(sp *obs.Span) ([]byte, error) {
		return compressSpan(data, dims, opts, sp)
	})
}

// CompressChunkedWithStats is CompressChunked plus a telemetry summary,
// including one span per pool worker and one per chunk. The chunks are
// one call to Publish, not one each.
func CompressChunkedWithStats(data []float64, dims []int, opts Options, chunkExtent int) ([]byte, *CompressStats, error) {
	return observe("compress_chunked", opts.Algorithm, data, dims, func(sp *obs.Span) ([]byte, error) {
		return compressChunkedSpan(data, dims, opts, chunkExtent, sp)
	})
}

// DecompressObserved is DecompressParallel with telemetry: the returned
// Result carries per-stage stats in Result.Stats — op "decompress", or
// "decompress_chunked" with one span per pool worker and one per chunk
// for a chunked container. The reconstruction is identical to an
// unobserved decompress.
func DecompressObserved(stream []byte, workers int) (*Result, error) {
	return decompress(stream, workers, obs.New())
}
