package agg

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"scdc/internal/obs"
)

// sampleReport builds a small compress-shaped span tree with known
// durations, a coder decision and indexed per-pass spans.
func sampleReport() (Meta, *obs.Report) {
	rep := &obs.Report{
		Name: "compress", NS: 10e6,
		Children: []*obs.Report{
			{Name: "interp", NS: 4e6, Children: []*obs.Report{
				{Name: "pass[0]", NS: 2e6},
				{Name: "pass[1]", NS: 2e6},
			}},
			{Name: "huffman", NS: 3e6, Counters: map[string]int64{"coder": 0, "bytes_out": 1000}},
			{Name: "lossless", NS: 2e6},
		},
	}
	m := Meta{
		Op: "compress", Algorithm: "SZ3", Points: 1 << 16,
		RawBytes: 8 << 16, StreamBytes: 7000,
		Ratio: float64(8<<16) / 7000, BitsPerValue: 8 * 7000 / float64(1<<16),
	}
	return m, rep
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 1000 observations uniform in [0, 1e6): quantile estimates must land
	// within one log-2 bucket of the true quantile.
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500e3}, {0.90, 900e3}, {0.99, 990e3},
	} {
		got := float64(h.Quantile(tc.q))
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.2f = %.0f, want within 2x of %.0f", tc.q, got, tc.want)
		}
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Error("q0 > q1")
	}
	// Negative observations clamp to the zero bucket.
	h2 := &Histogram{}
	h2.Observe(-5)
	if h2.Quantile(0.5) != 0 || h2.Sum() != 0 {
		t.Errorf("negative observation: q50=%d sum=%d", h2.Quantile(0.5), h2.Sum())
	}
	// A constant stream pins every quantile inside the value's bucket.
	h3 := &Histogram{}
	for i := 0; i < 100; i++ {
		h3.Observe(1 << 20)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h3.Quantile(q); v < 1<<19 || v > 1<<21 {
			t.Errorf("constant stream q%.2f = %d", q, v)
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Errorf("counter %d, want 16000", got)
	}
	g := &Gauge{}
	g.Set(76.13)
	if g.Value() != 76.13 {
		t.Errorf("gauge %v", g.Value())
	}
}

func TestRegistryPublish(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	for i := 0; i < 5; i++ {
		r.Publish(m, rep)
	}
	byOp := []Label{{"algorithm", "SZ3"}, {"op", "compress"}}
	if got := r.Counter(MetricOps, byOp...).Value(); got != 5 {
		t.Errorf("ops %d, want 5", got)
	}
	if got := r.Counter(MetricStreamBytes, byOp...).Value(); got != 5*7000 {
		t.Errorf("stream bytes %d", got)
	}
	if got := r.Gauge(MetricRatio, byOp...).Value(); math.Abs(got-m.Ratio) > 1e-9 {
		t.Errorf("ratio gauge %v, want %v", got, m.Ratio)
	}
	// Stage histograms: interp observed 5x at 4ms; the two pass[i] spans
	// fold into one "pass" series with 10 observations.
	interp := r.Histogram(MetricStageNS, Label{"algorithm", "SZ3"}, Label{"op", "compress"}, Label{"stage", "interp"})
	if interp.Count() != 5 {
		t.Errorf("interp count %d, want 5", interp.Count())
	}
	if p50 := interp.Quantile(0.5); p50 < 2e6 || p50 > 8e6 {
		t.Errorf("interp p50 %d, want ~4e6", p50)
	}
	pass := r.Histogram(MetricStageNS, Label{"algorithm", "SZ3"}, Label{"op", "compress"}, Label{"stage", "pass"})
	if pass.Count() != 10 {
		t.Errorf("pass count %d, want 10", pass.Count())
	}
	// The root span is the op latency, not a stage.
	if got := r.Histogram(MetricOpNS, byOp...).Count(); got != 5 {
		t.Errorf("op ns count %d", got)
	}
	if got := r.Counter(MetricCoder, Label{"algorithm", "SZ3"}, Label{"coder", "huffman"}).Value(); got != 5 {
		t.Errorf("coder counter %d, want 5", got)
	}
	// Publishing with a nil report still counts the op.
	r.Publish(Meta{Op: "decompress", Algorithm: "SZ3"}, nil)
	if got := r.Counter(MetricOps, Label{"algorithm", "SZ3"}, Label{"op", "decompress"}).Value(); got != 1 {
		t.Errorf("nil-report publish not counted: %d", got)
	}
}

// TestNilRegistryZeroAllocs pins the disabled path alongside the
// obs-level nil-Span pin: a nil Registry (and the nil series it hands
// out) must add zero allocations to the instrumented hot-path shape.
func TestNilRegistryZeroAllocs(t *testing.T) {
	var r *Registry
	m, rep := sampleReport()
	h := r.Histogram(MetricStageNS)
	c := r.Counter(MetricOps)
	g := r.Gauge(MetricRatio)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Publish(m, rep)
		h.Observe(123456)
		c.Add(1)
		g.Set(76.13)
		_ = h.Quantile(0.5)
		_ = c.Value()
	})
	if allocs != 0 {
		t.Fatalf("nil registry fast path allocates %.1f/op, want 0", allocs)
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Render() != "" {
		t.Error("nil registry reports state")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesKindClash(t *testing.T) {
	r := New()
	if r.Counter("x", Label{"a", "b"}) == nil {
		t.Fatal("counter creation failed")
	}
	if h := r.Histogram("x", Label{"a", "b"}); h != nil {
		t.Error("kind clash handed out a live histogram")
	}
	// The clash result is a safe no-op.
	r.Histogram("x", Label{"a", "b"}).Observe(1)
}

func TestSeriesCardinalityCap(t *testing.T) {
	r := New()
	for i := 0; i < maxSeries+10; i++ {
		r.Counter("c", Label{"i", fmt.Sprint(i)}).Add(1)
	}
	if r.Len() != maxSeries {
		t.Errorf("len %d, want cap %d", r.Len(), maxSeries)
	}
	if r.Dropped() != 10 {
		t.Errorf("dropped %d, want 10", r.Dropped())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "scdc_dropped_series_total 10") {
		t.Error("dropped-series self-counter missing from exposition")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	r.Publish(m, rep)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`# TYPE scdc_ops_total counter`,
		`scdc_ops_total{algorithm="SZ3",op="compress"} 1`,
		`# TYPE scdc_stage_ns histogram`,
		`scdc_stage_ns_bucket{algorithm="SZ3",op="compress",stage="huffman",le="+Inf"} 1`,
		`scdc_stage_ns_count{algorithm="SZ3",op="compress",stage="huffman"} 1`,
		`scdc_stage_ns_sum{algorithm="SZ3",op="compress",stage="huffman"} 3000000`,
		`# TYPE scdc_compression_ratio gauge`,
		`scdc_entropy_coder_total{algorithm="SZ3",coder="huffman"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be non-decreasing per series and end
	// at _count.
	var last int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `scdc_stage_ns_bucket{algorithm="SZ3",op="compress",stage="interp"`) {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			if v < last {
				t.Errorf("bucket counts decrease: %q", line)
			}
			last = v
		}
	}
	// Output is deterministic.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("exposition not deterministic")
	}
}

func TestSnapshotJSONAndHandlers(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	r.Publish(m, rep)

	snap := r.Snapshot()
	if snap.Schema != SnapshotSchema || len(snap.Series) == 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range back.Series {
		if s.Name == MetricStageNS && s.Labels["stage"] == "interp" {
			found = true
			if s.Type != "histogram" || s.Count != 1 || s.P50 <= 0 {
				t.Errorf("interp series: %+v", s)
			}
		}
	}
	if !found {
		t.Error("interp stage series missing from snapshot")
	}

	mux := httptest.NewServer(r.MetricsHandler())
	defer mux.Close()
	resp, err := mux.Client().Get(mux.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), "scdc_ops_total") {
		t.Error("handler body missing metrics")
	}

	js := httptest.NewServer(r.JSONHandler())
	defer js.Close()
	resp2, err := js.Client().Get(js.URL)
	if err != nil {
		t.Fatal(err)
	}
	var snap2 Snapshot
	err = json.NewDecoder(resp2.Body).Decode(&snap2)
	resp2.Body.Close()
	if err != nil || snap2.Schema != SnapshotSchema {
		t.Errorf("json handler: %v %q", err, snap2.Schema)
	}
}

func TestMountEndpoints(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	r.Publish(m, rep)
	mux := newMountedServer(t, r)
	defer mux.Close()
	for path, want := range map[string]string{
		"/metrics":             "scdc_stage_ns_bucket",
		"/metrics.json":        SnapshotSchema,
		"/debug/vars":          "memstats",
		"/debug/pprof/":        "profile",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := mux.Client().Get(mux.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body), want) {
			t.Errorf("%s missing %q", path, want)
		}
	}
}

func newMountedServer(t *testing.T, r *Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, r)
	return httptest.NewServer(mux)
}

func TestRender(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	r.Publish(m, rep)
	out := r.Render()
	for _, want := range []string{"compress/SZ3", "interp", "huffman", "p50=", "p99=", "CR=", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// interp (4ms) must rank above lossless (2ms).
	if strings.Index(out, "interp") > strings.Index(out, "lossless") {
		t.Errorf("stages not ordered by total time:\n%s", out)
	}
}

// TestRegistryConcurrency races concurrent Publish, exposition scrapes
// and quantile reads — the satellite's race-coverage contract, exercised
// under `make race`.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	m, rep := sampleReport()
	var wg, pubs sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 200; i++ {
				r.Publish(m, rep)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := r.Histogram(MetricStageNS, Label{"algorithm", "SZ3"}, Label{"op", "compress"}, Label{"stage", "interp"})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q := h.Quantile(0.99); q < 0 {
				t.Error("negative quantile")
				return
			}
		}
	}()
	// Publishers finish first, then the readers are released.
	pubs.Wait()
	close(stop)
	wg.Wait()
	if got := r.Counter(MetricOps, Label{"algorithm", "SZ3"}, Label{"op", "compress"}).Value(); got != 800 {
		t.Errorf("ops %d, want 800", got)
	}
}

// BenchmarkRegistryPublish measures the per-operation aggregation cost:
// one compress-shaped report folded into an established registry.
func BenchmarkRegistryPublish(b *testing.B) {
	r := New()
	m, rep := sampleReport()
	r.Publish(m, rep) // establish the series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Publish(m, rep)
	}
}

// BenchmarkRegistryScrape measures exposition latency on a populated
// registry: one full Prometheus text render per iteration.
func BenchmarkRegistryScrape(b *testing.B) {
	r := New()
	m, rep := sampleReport()
	for i := 0; i < 1000; i++ {
		r.Publish(m, rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
