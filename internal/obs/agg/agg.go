// Package agg is the process-level aggregation layer on top of
// internal/obs: where obs explains one operation with a span tree, agg
// folds thousands of span trees into named series — atomic counters,
// log-bucketed latency/size histograms with quantile estimation, and
// last-value gauges — keyed by (metric name, labels).
//
// The entry point is Registry.Publish, which ingests one obs.Report plus
// its stream-level summary (Meta) and updates the per-(algorithm, op,
// stage) series. The registry is exposed three ways (see expose.go): a
// Prometheus text-format http.Handler, a JSON snapshot, and a
// Flamegraph-style text rendering for the CLI.
//
// Like obs, the package is zero-dependency and follows the nil-means-off
// contract: every method of Registry, Histogram, Counter and Gauge is a
// zero-allocation no-op on a nil receiver (pinned by
// TestNilRegistryZeroAllocs), so hot paths carry one pointer and pay a
// nil check when aggregation is disabled. cmd/scdclint's obsguard
// analyzer enforces the same guard discipline for expensive arguments as
// it does for obs spans.
package agg

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"scdc/internal/entropy"
	"scdc/internal/obs"
)

// Counter is a monotonic counter. Nil receivers no-op.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-write-wins float64. Nil receivers no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one name=value dimension of a series.
type Label struct {
	Key, Value string
}

// seriesKind discriminates the three series types.
type seriesKind byte

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

// String returns the Prometheus TYPE name.
func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one named, labeled time series. Exactly one of the three
// value fields is non-nil, matching kind.
type series struct {
	name   string
	labels []Label
	kind   seriesKind
	hist   *Histogram
	ctr    *Counter
	gauge  *Gauge
}

// maxSeries caps the registry against label-cardinality blowups: past
// the cap, lookups of new series return nil (disabled) and the
// scdc_dropped_series_total self-counter records the loss, so a hostile
// or buggy label source cannot grow the process without bound.
const maxSeries = 4096

// Registry holds the process's aggregate series. The zero value is not
// usable; construct with New. A nil *Registry is the disabled state:
// every method no-ops at zero cost.
//
// Series creation takes a short mutex; established series are updated
// with atomics only, so concurrent Publish calls contend only on the
// counters they share.
type Registry struct {
	mu      sync.RWMutex
	series  map[string]*series
	dropped atomic.Int64
}

// New returns an enabled, empty registry.
func New() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// seriesKey builds the map key for a (name, labels) pair. Callers use a
// fixed label order per metric name, so the key is stable without
// sorting.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series for (name, labels), creating it with kind on
// first use. It returns nil — the disabled state — when the registry is
// nil, the cap is reached, or an existing series has a different kind.
func (r *Registry) lookup(name string, kind seriesKind, labels []Label) *series {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s == nil {
		r.mu.Lock()
		s = r.series[key]
		if s == nil {
			if len(r.series) >= maxSeries {
				r.mu.Unlock()
				r.dropped.Add(1)
				return nil
			}
			s = &series{name: name, labels: append([]Label(nil), labels...), kind: kind}
			switch kind {
			case kindCounter:
				s.ctr = &Counter{}
			case kindGauge:
				s.gauge = &Gauge{}
			default:
				s.hist = &Histogram{}
			}
			r.series[key] = s
		}
		r.mu.Unlock()
	}
	if s.kind != kind {
		return nil
	}
	return s
}

// Histogram returns the named histogram series, creating it on first
// use. Nil registries (and kind clashes) return a nil, no-op histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	s := r.lookup(name, kindHistogram, labels)
	if s == nil {
		return nil
	}
	return s.hist
}

// Counter returns the named counter series, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(name, kindCounter, labels)
	if s == nil {
		return nil
	}
	return s.ctr
}

// Gauge returns the named gauge series, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(name, kindGauge, labels)
	if s == nil {
		return nil
	}
	return s.gauge
}

// Dropped returns how many series creations the cardinality cap refused.
func (r *Registry) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Len returns the number of live series.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.series)
}

// Meta is the stream-level summary published alongside a span tree: the
// non-timing half of scdc-stats/1 (DESIGN.md §7).
type Meta struct {
	// Op is "compress", "compress_chunked", "decompress" or
	// "decompress_chunked" — the last is what scdc.DecompressObserved
	// reports for a chunked container.
	Op string
	// Algorithm is the compressor name.
	Algorithm string
	// Points is the number of samples.
	Points int
	// RawBytes and StreamBytes are the uncompressed and container sizes.
	RawBytes, StreamBytes int64
	// Ratio is RawBytes / StreamBytes; 0 when unknown.
	Ratio float64
	// BitsPerValue is 8 * StreamBytes / Points; 0 when unknown.
	BitsPerValue float64
}

// Metric names published by Registry.Publish. The label sets are fixed:
// per-(algorithm, op) for operation-level series, plus a stage label for
// the per-stage histograms and a coder label for the entropy decisions
// (DESIGN.md §7 documents the exposition contract).
const (
	// MetricOps counts published operations.
	MetricOps = "scdc_ops_total"
	// MetricOpNS is the whole-operation latency histogram (nanoseconds).
	MetricOpNS = "scdc_op_ns"
	// MetricStageNS is the per-stage latency histogram (nanoseconds).
	MetricStageNS = "scdc_stage_ns"
	// MetricRawBytes and MetricStreamBytes total the bytes moved.
	MetricRawBytes    = "scdc_raw_bytes_total"
	MetricStreamBytes = "scdc_stream_bytes_total"
	// MetricStreamSize is the per-operation container size histogram.
	MetricStreamSize = "scdc_stream_size_bytes"
	// MetricRatio and MetricBitsPerValue gauge the latest stream-level
	// quality figures.
	MetricRatio        = "scdc_compression_ratio"
	MetricBitsPerValue = "scdc_bits_per_value"
	// MetricCoder counts index-stream encodes by entropy coder (huffman,
	// the one index encoder), from the coder counter the choose stage
	// leaves on its span.
	MetricCoder = "scdc_entropy_coder_total"
)

// normalizeStage collapses indexed span names ("pass[2]", "worker[0]",
// "chunk[17]") onto their family name so per-item spans aggregate into
// one bounded series instead of one series per index.
func normalizeStage(name string) string {
	if i := strings.IndexByte(name, '['); i > 0 {
		return name[:i]
	}
	if name == "" {
		return "unknown"
	}
	return name
}

// Publish folds one observed operation into the registry: the Meta
// summary updates the op-level counters and gauges, and every span of
// the report tree lands in the per-(algorithm, op, stage) latency
// histograms. Spans named "name[i]" aggregate under "name". The root
// span is recorded as the whole-operation latency (MetricOpNS), not as a
// stage. A coder counter on any span (core.ChooseEncodingCoder leaves one
// on the huffman span) increments the per-coder counter.
//
// Publish is safe for concurrent use and never mutates the report. On a
// nil registry it is a zero-cost no-op.
func (r *Registry) Publish(m Meta, rep *obs.Report) {
	if r == nil {
		return
	}
	alg, op := m.Algorithm, m.Op
	if alg == "" {
		alg = "unknown"
	}
	if op == "" {
		op = "unknown"
	}
	byOp := []Label{{"algorithm", alg}, {"op", op}}
	r.Counter(MetricOps, byOp...).Add(1)
	if m.RawBytes > 0 {
		r.Counter(MetricRawBytes, byOp...).Add(m.RawBytes)
	}
	if m.StreamBytes > 0 {
		r.Counter(MetricStreamBytes, byOp...).Add(m.StreamBytes)
		r.Histogram(MetricStreamSize, byOp...).Observe(m.StreamBytes)
	}
	if m.Ratio > 0 {
		r.Gauge(MetricRatio, byOp...).Set(m.Ratio)
	}
	if m.BitsPerValue > 0 {
		r.Gauge(MetricBitsPerValue, byOp...).Set(m.BitsPerValue)
	}
	if rep == nil {
		return
	}
	r.Histogram(MetricOpNS, byOp...).Observe(rep.NS)
	rep.Walk(func(n *obs.Report) {
		if n != rep {
			r.Histogram(MetricStageNS,
				Label{"algorithm", alg}, Label{"op", op},
				Label{"stage", normalizeStage(n.Name)}).Observe(n.NS)
		}
		if v, ok := n.Counters["coder"]; ok {
			r.Counter(MetricCoder,
				Label{"algorithm", alg},
				Label{"coder", entropy.Coder(v).String()}).Add(1)
		}
	})
}
