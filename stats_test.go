package scdc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/obs/agg"
	"scdc/internal/sz3"
)

func statsTestField(n0, n1, n2 int) ([]float64, []int) {
	dims := []int{n0, n1, n2}
	data := make([]float64, n0*n1*n2)
	for i := range data {
		x := float64(i%n2) / float64(n2)
		y := float64((i/n2)%n1) / float64(n1)
		z := float64(i/(n1*n2)) / float64(n0)
		data[i] = math.Sin(7*x)*math.Cos(5*y) + 0.5*z*z
	}
	return data, dims
}

// TestObserverByteIdentity pins the core contract: observation never
// changes the produced stream — CompressWithStats writes Compress's bytes
// for every algorithm, and CompressChunkedWithStats CompressChunked's.
func TestObserverByteIdentity(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	for alg := SZ3; alg < numAlgorithms; alg++ {
		opts := Options{Algorithm: alg, ErrorBound: 1e-3, Workers: 3}
		if alg.SupportsQP() {
			opts.QP = DefaultQP()
		}
		plain, err := Compress(data, dims, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		observed, _, err := CompressWithStats(data, dims, opts)
		if err != nil {
			t.Fatalf("%v observed: %v", alg, err)
		}
		if !bytes.Equal(plain, observed) {
			t.Errorf("%v: observed stream differs from plain stream", alg)
		}
	}

	opts := Options{Algorithm: SZ3, ErrorBound: 1e-3, QP: DefaultQP(), Workers: 3}
	plain, err := CompressChunked(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	observed, _, err := CompressChunkedWithStats(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, observed) {
		t.Error("chunked: observed stream differs from plain stream")
	}
}

// TestCompressWithStatsStages checks the documented span taxonomy: an
// observed SZ3+QP compression reports the five named pipeline stages and
// a self-consistent summary.
func TestCompressWithStatsStages(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	// 1e-2 keeps SZ3 in interpolation mode for this field; smaller bounds
	// switch to Lorenzo, which has no interp/qp spans.
	stream, stats, err := CompressWithStats(data, dims, Options{
		Algorithm: SZ3, ErrorBound: 1e-2, QP: DefaultQP(), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Schema != StatsSchema {
		t.Errorf("schema %q, want %q", stats.Schema, StatsSchema)
	}
	if stats.Points != len(data) || stats.StreamBytes != int64(len(stream)) {
		t.Errorf("summary geometry mismatch: %+v", stats)
	}
	wantRatio := float64(8*len(data)) / float64(len(stream))
	if math.Abs(stats.Ratio-wantRatio) > 1e-9 {
		t.Errorf("ratio %v, want %v", stats.Ratio, wantRatio)
	}
	wantBPV := 8 * float64(len(stream)) / float64(len(data))
	if math.Abs(stats.BitsPerValue-wantBPV) > 1e-9 {
		t.Errorf("bits/value %v, want %v", stats.BitsPerValue, wantBPV)
	}
	for _, stage := range []string{"interp", "quantize", "qp", "huffman", "lossless"} {
		if stats.Report.Find(stage) == nil {
			t.Errorf("stage %q missing from report", stage)
		}
	}
	if got := stats.Report.Counter("quantize", "points"); got != int64(len(data)) {
		t.Errorf("quantize points = %d, want %d", got, len(data))
	}
	if stats.Report.Counter("huffman", "bytes_out") == 0 {
		t.Error("huffman bytes_out missing")
	}

	// The report must round-trip through its stable JSON schema.
	blob, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema"`, `"op"`, `"algorithm"`, `"dims"`, `"points"`,
		`"raw_bytes"`, `"stream_bytes"`, `"ratio"`, `"bits_per_value"`, `"report"`, `"ns"`} {
		if !bytes.Contains(blob, []byte(key)) {
			t.Errorf("JSON missing key %s", key)
		}
	}
	var back CompressStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Report.Find("huffman") == nil {
		t.Error("report lost huffman stage in JSON round-trip")
	}
}

// TestBackendStageSet: the four engines share one index-stream back-end,
// so an observed compression reports the same stages with the same
// counters for each of them — only the name of the coarse-lattice counter
// on "quantize" is the engine's own — and an observed decompression
// mirrors the stages and the qp counters.
func TestBackendStageSet(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	for _, tc := range []struct {
		alg  Algorithm
		side string // quantize counter for the losslessly stored lattice
	}{{SZ3, ""}, {QoZ, "anchors"}, {HPEZ, "anchors"}, {MGARD, "coarse"}} {
		// 1e-2 keeps SZ3 in interpolation mode (see TestCompressWithStatsStages).
		stream, stats, err := CompressWithStats(data, dims, Options{Algorithm: tc.alg, ErrorBound: 1e-2, QP: DefaultQP()})
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		res, err := DecompressObserved(stream, 1)
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		want := map[string][]string{
			"interp":   nil,
			"qp":       {"compensated", "points"},
			"quantize": {"points", "unpredictable"},
			"huffman":  {"est_bits_out", "act_bits_out", "bytes_out", "symbols"},
			"lossless": {"bytes_in", "bytes_out"},
		}
		if tc.side != "" {
			want["quantize"] = append(want["quantize"], tc.side)
		}
		for stage, counters := range want {
			n := stats.Report.Find(stage)
			if n == nil {
				t.Errorf("%v: stage %q missing from compress report", tc.alg, stage)
				continue
			}
			for _, c := range counters {
				if _, ok := n.Counters[c]; !ok {
					t.Errorf("%v: compress %s span has no %q counter (has %v)", tc.alg, stage, c, n.Counters)
				}
			}
			// Decompression has no quantize stage, and a qp stage only
			// for a stream that kept QP (checked below).
			if stage != "quantize" && stage != "qp" && res.Stats.Report.Find(stage) == nil {
				t.Errorf("%v: stage %q missing from decompress report", tc.alg, stage)
			}
		}
		if got := stats.Report.Counter("quantize", "points"); got != int64(len(data)) {
			t.Errorf("%v: quantize points = %d, want %d", tc.alg, got, len(data))
		}
		comp := stats.Report.Counter("qp", "compensated")
		if comp <= 0 {
			t.Errorf("%v: qp compensated = %d, want > 0", tc.alg, comp)
		}
		swept := stats.Report.Counter("qp", "points")
		if swept < comp || swept > int64(len(data)) {
			t.Errorf("%v: qp points = %d, want between compensated (%d) and the field (%d)", tc.alg, swept, comp, len(data))
		}
		// The inverse sweeps compensate exactly the points the forward
		// sweeps did, and visit as many, whenever the stream kept QP.
		if stats.Report.Counter("huffman", "qp_kept") == 1 {
			if got := res.Stats.Report.Counter("qp", "compensated"); got != comp {
				t.Errorf("%v: decompress qp compensated = %d, compress %d", tc.alg, got, comp)
			}
			if got := res.Stats.Report.Counter("qp", "points"); got != swept {
				t.Errorf("%v: decompress qp points = %d, compress %d", tc.alg, got, swept)
			}
		} else if res.Stats.Report.Find("qp") != nil {
			t.Errorf("%v: decompress ran QP on a stream that dropped it", tc.alg)
		}
	}
}

// TestStagesDisjoint: the sweep's clock charges every instant between the
// start of an engine's sweeps and their end to the stage or to qp, never
// to both, so the stages of one call are disjoint sub-intervals of it:
// the direct children of an observed root span sum to no more than the
// root, on every engine, QP on and off, in both directions, and in SZ3's
// Lorenzo mode with QP extended to it. The stage span counts every point
// of the field.
func TestStagesDisjoint(t *testing.T) {
	data, dims := statsTestField(64, 64, 64)
	check := func(name string, rep *obs.Report, wantQP bool) {
		t.Helper()
		var sum int64
		stage := ""
		for _, c := range rep.Children {
			sum += c.NS
			if c.Name == "interp" || c.Name == "lorenzo" {
				stage = c.Name
			}
		}
		if sum > rep.NS {
			t.Errorf("%s: stages sum to %d ns of a %d ns call:\n%s", name, sum, rep.NS, obs.Flamegraph(rep))
		}
		if got := rep.Counter(stage, "points"); stage == "" || got != int64(len(data)) {
			t.Errorf("%s: stage %q counts %d points, want %d", name, stage, got, len(data))
		}
		if wantQP && rep.Find("qp").NS <= 0 {
			t.Errorf("%s: no time on the qp span", name)
		}
	}
	for _, alg := range []Algorithm{SZ3, QoZ, HPEZ, MGARD} {
		for _, qp := range []QPConfig{{}, DefaultQP()} {
			qpOn := qp != QPConfig{}
			name := fmt.Sprintf("%v/qp=%v", alg, qpOn)
			// 1e-2 keeps SZ3 in interpolation mode (see TestCompressWithStatsStages).
			stream, stats, err := CompressWithStats(data, dims, Options{Algorithm: alg, ErrorBound: 1e-2, QP: qp})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name+"/compress", stats.Report, qpOn)
			res, err := DecompressObserved(stream, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name+"/decompress", res.Stats.Report, qpOn && stats.Report.Counter("huffman", "qp_kept") == 1)
		}
	}

	// SZ3's Lorenzo mode, QP off and on, through the engine itself.
	f, err := grid.FromSlice(data, dims...)
	if err != nil {
		t.Fatal(err)
	}
	for _, qpOn := range []bool{false, true} {
		name := fmt.Sprintf("SZ3/lorenzo/qp=%v", qpOn)
		rec := obs.New()
		opts := sz3.DefaultOptions(1e-2)
		if qpOn {
			opts = opts.WithQP()
		}
		opts.Choice, opts.ForceQP = sz3.ChoiceLorenzo, true
		opts.Obs = rec.Span("compress")
		payload, err := sz3.Compress(f, opts)
		opts.Obs.End()
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/compress", rec.Report(), qpOn)
		if rec.Report().Find("lorenzo") == nil {
			t.Errorf("%s: forced Lorenzo mode has no lorenzo stage", name)
		}
		rec = obs.New()
		sp := rec.Span("decompress")
		_, err = sz3.DecompressObs(payload, dims, sp)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/decompress", rec.Report(), qpOn)
	}
}

// TestQoZChooseSpan: the tuner accounts for its work on the "choose" span.
// This field is small enough that every level is sampled at step 1, so
// each of the six direction orders visits every non-origin point once
// and scores both spline kinds from the visit.
func TestQoZChooseSpan(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	_, stats, err := CompressWithStats(data, dims, Options{Algorithm: QoZ, ErrorBound: 1e-2, QP: DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	choose := stats.Report.Find("choose")
	if choose == nil {
		t.Fatal("no choose span")
	}
	const levels, orders = 5, 6 // 2^4 <= 23 < 2^5; 3! orders
	want := map[string]int64{
		"levels":     levels,
		"samples":    orders * int64(len(data)-1),
		"candidates": levels * orders * 2,
	}
	for name, w := range want {
		if got := choose.Counters[name]; got != w {
			t.Errorf("choose %s = %d, want %d", name, got, w)
		}
	}
	// The chosen level-bound scaling is one of the tuner's four pairs.
	alpha, beta := choose.Gauges["alpha"], choose.Gauges["beta"]
	switch [2]float64{alpha, beta} {
	case [2]float64{1, 1}, [2]float64{1.25, 2}, [2]float64{1.5, 2}, [2]float64{2, 3}:
	default:
		t.Errorf("choose gauges alpha=%v beta=%v are not a candidate pair", alpha, beta)
	}
}

// TestChunkedWorkerSpans checks the chunked container's per-worker and
// per-chunk span layout on both directions.
func TestChunkedWorkerSpans(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	opts := Options{Algorithm: SZ3, ErrorBound: 1e-3, QP: DefaultQP(), Workers: 3}
	stream, stats, err := CompressChunkedWithStats(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Op != "compress_chunked" {
		t.Errorf("op %q", stats.Op)
	}
	countSpans := func(rep *obs.Report) (workers, chunks int) {
		var walk func(r *obs.Report)
		walk = func(r *obs.Report) {
			if len(r.Name) >= 7 && r.Name[:7] == "worker[" {
				workers++
			}
			if len(r.Name) >= 6 && r.Name[:6] == "chunk[" {
				chunks++
			}
			for _, c := range r.Children {
				walk(c)
			}
		}
		walk(rep)
		return workers, chunks
	}
	nChunks := (dims[0] + 3) / 4
	if w, c := countSpans(stats.Report); w == 0 || w > 3 || c != nChunks {
		t.Errorf("compress: %d worker spans (want 1..3), %d chunk spans (want %d)", w, c, nChunks)
	}

	res, err := DecompressObserved(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Op != "decompress_chunked" {
		t.Fatalf("missing decompress stats: %+v", res.Stats)
	}
	if w, c := countSpans(res.Stats.Report); w == 0 || w > 3 || c != nChunks {
		t.Errorf("decompress: %d worker spans (want 1..3), %d chunk spans (want %d)", w, c, nChunks)
	}
	if res.Stats.Report.Counter("decompress_chunked", "chunks") != int64(nChunks) {
		t.Errorf("chunks counter = %d, want %d",
			res.Stats.Report.Counter("decompress_chunked", "chunks"), nChunks)
	}

	// Observed and plain decompression must agree exactly.
	plain, err := DecompressParallel(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if plain.Data[i] != res.Data[i] {
			t.Fatalf("observed decompression diverges at %d", i)
		}
	}
}

// TestDecompressObservedStages checks the single-stream decompress span
// taxonomy.
func TestDecompressObservedStages(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	// 1e-2 keeps SZ3 in interpolation mode (see TestCompressWithStatsStages).
	stream, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-2, QP: DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecompressObserved(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("no stats on observed decompress")
	}
	for _, stage := range []string{"lossless", "huffman", "qp", "interp"} {
		if res.Stats.Report.Find(stage) == nil {
			t.Errorf("stage %q missing from decompress report", stage)
		}
	}
	plain, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if plain.Data[i] != res.Data[i] {
			t.Fatalf("observed decompression diverges at %d", i)
		}
	}
}

// TestRegistryByteIdentity pins that aggregation never changes the
// produced stream, for every algorithm and for the chunked container —
// the same contract TestObserverByteIdentity pins for span observation:
// a stats door's stream, published into a registry, is the plain door's.
func TestRegistryByteIdentity(t *testing.T) {
	data, dims := statsTestField(16, 20, 24)
	reg := agg.New()
	for alg := SZ3; alg < numAlgorithms; alg++ {
		opts := Options{Algorithm: alg, ErrorBound: 1e-3, Workers: 3}
		if alg.SupportsQP() {
			opts.QP = DefaultQP()
		}
		plain, err := Compress(data, dims, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		metered, st, err := CompressWithStats(data, dims, opts)
		if err != nil {
			t.Fatalf("%v metered: %v", alg, err)
		}
		st.Publish(reg)
		if !bytes.Equal(plain, metered) {
			t.Errorf("%v: metered stream differs from plain stream", alg)
		}
		if got := reg.Counter(agg.MetricOps,
			agg.Label{Key: "algorithm", Value: alg.String()},
			agg.Label{Key: "op", Value: "compress"}).Value(); got != 1 {
			t.Errorf("%v: ops counter %d, want 1", alg, got)
		}
	}

	opts := Options{Algorithm: SZ3, ErrorBound: 1e-3, QP: DefaultQP(), Workers: 3}
	plain, err := CompressChunked(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	metered, st, err := CompressChunkedWithStats(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.Publish(reg)
	if !bytes.Equal(plain, metered) {
		t.Error("chunked: metered stream differs from plain stream")
	}
	chunkedOps := agg.Label{Key: "op", Value: "compress_chunked"}
	if got := reg.Counter(agg.MetricOps,
		agg.Label{Key: "algorithm", Value: "SZ3"}, chunkedOps).Value(); got != 1 {
		t.Errorf("chunked ops counter %d, want 1 (chunks must not publish individually)", got)
	}
	if got := reg.Histogram(agg.MetricStageNS,
		agg.Label{Key: "algorithm", Value: "SZ3"}, chunkedOps,
		agg.Label{Key: "stage", Value: "chunk"}).Count(); got == 0 {
		t.Error("chunked compress published no chunk stage observations")
	}
}

// TestNilMetricsCompressZeroAllocs pins that publishing into a nil
// registry, or publishing nil stats, costs nothing, alongside the nil-Span
// pin in internal/obs: a caller such as cmd/scdc can publish every run
// unconditionally.
func TestNilMetricsCompressZeroAllocs(t *testing.T) {
	data, dims := statsTestField(8, 8, 8)
	_, st, err := CompressWithStats(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-2, QP: DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	var reg *agg.Registry
	var nilStats *CompressStats
	if a := testing.AllocsPerRun(1000, func() {
		st.Publish(reg)
		nilStats.Publish(nil)
	}); a != 0 {
		t.Fatalf("nil-registry publish allocates %.1f/op, want 0", a)
	}
}

// BenchmarkMetricsOverhead measures the cost of compressing through
// CompressWithStats and publishing every call into an aggregation registry
// versus a bare Compress, the registry-level analogue of
// BenchmarkObserverOverhead.
func BenchmarkMetricsOverhead(b *testing.B) {
	data, dims := statsTestField(32, 32, 32)
	opts := Options{Algorithm: SZ3, ErrorBound: 1e-2, QP: DefaultQP()}
	reg := agg.New()
	benchStatsDoor(b, "registry", func() error {
		_, st, err := CompressWithStats(data, dims, opts)
		st.Publish(reg)
		return err
	}, func() error {
		_, err := Compress(data, dims, opts)
		return err
	}, len(data))
}

// BenchmarkObserverOverhead measures the cost of compressing through
// CompressWithStats, which records every span, versus a bare Compress. The
// nil path's zero-allocation property is pinned separately by
// internal/obs.TestNilFastPathZeroAllocs; this benchmark bounds the
// wall-clock delta when observation is actually on.
func BenchmarkObserverOverhead(b *testing.B) {
	data, dims := statsTestField(32, 32, 32)
	opts := Options{Algorithm: SZ3, ErrorBound: 1e-2, QP: DefaultQP()}
	benchStatsDoor(b, "observer", func() error {
		_, _, err := CompressWithStats(data, dims, opts)
		return err
	}, func() error {
		_, err := Compress(data, dims, opts)
		return err
	}, len(data))
}

// benchStatsDoor runs the sub-benchmarks name=off (plain) and name=on
// (on), each compressing points values per iteration.
func benchStatsDoor(b *testing.B, name string, on, plain func() error, points int) {
	for _, c := range []struct {
		state string
		run   func() error
	}{{"off", plain}, {"on", on}} {
		b.Run(name+"="+c.state, func(b *testing.B) {
			b.SetBytes(int64(8 * points))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
