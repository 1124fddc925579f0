package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{7}, 0.25, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// The limits BENCHMARK.json is held to by the driver that runs it.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: malformed unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		gated := i < len(endToEnd)
		if gated != (d.Bound > 0) || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g (gated: %v)", d.Name, d.Bound, gated)
		}
		setup = setup || (gated && d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no gated setup_s metric in seconds, lower is better")
	}
}

func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the driver's tables; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "command,end_to_end,paths,per_layer,run_seconds,workloads"; got != want {
		t.Errorf("BENCHMARK.json keys %s, want %s", got, want)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; at most 64 KiB", len(onDisk))
	}
}

// small is the workload on a 32x32x32 window, for runs that take a moment.
func small(w workload) workload {
	w.Dims = [3]int{32, 32, 32}
	return w
}

func TestSeedsGiveDifferentFieldsOfOneShape(t *testing.T) {
	w := small(workloads[0])
	a, err := w.synthesize(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.synthesize(2)
	again, _ := w.synthesize(1)
	if sameBits(a.Data, b.Data) {
		t.Error("seeds 1 and 2 give the same window")
	}
	if !sameBits(a.Data, again.Data) {
		t.Error("seed 1 gives two different windows")
	}
	if a.Len() != 32*32*32 || b.Len() != a.Len() {
		t.Errorf("window sizes %d and %d", a.Len(), b.Len())
	}
	// The allocation phase's windows start with the timed one and differ.
	offs := w.offsets(1, allocWindows)
	if offs[0] != w.offsets(1, 1)[0] {
		t.Errorf("first of %d windows is at %v, the timed window at %v", allocWindows, offs[0], w.offsets(1, 1)[0])
	}
	distinct := map[[3]int]bool{}
	for _, off := range offs {
		distinct[off] = true
	}
	if len(distinct) < 2 {
		t.Errorf("the %d allocation windows of seed 1 are all at %v", allocWindows, offs[0])
	}
}

func metricNames(r *result) string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func defNames(defs []metricDef) string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestSmoke runs every workload, gated and traced, on a small window with
// two rounds: all correctness checks, every metric, and the span file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{w: w, seed: 1, seconds: 0, outDir: dir, minRounds: 2, minTraced: 2}
			var log bytes.Buffer
			gated, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("gated run: %v\n%s", err, log.String())
			}
			if !gated.Correct || gated.Failed != 0 || gated.Attempted < 2*numOps*2+3*allocWindows {
				t.Errorf("gated run: correct %v, %d of %d operations failed\n%s", gated.Correct, gated.Failed, gated.Attempted, log.String())
			}
			if got, want := metricNames(gated), defNames(endToEnd); got != want {
				t.Errorf("gated run emits\n%s\nwant\n%s", got, want)
			}
			for name, m := range gated.Metrics {
				if !(m.Value > 0) {
					t.Errorf("gated metric %s = %g; gated metrics are never 0", name, m.Value)
				}
			}

			cfg.seed, cfg.trace = 2, true
			traced, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if !traced.Correct || traced.Failed != 0 || traced.Attempted <= gated.Attempted/2 {
				t.Errorf("traced run: correct %v, %d of %d operations failed", traced.Correct, traced.Failed, traced.Attempted)
			}
			if got, want := metricNames(traced), defNames(perLayer); got != want {
				t.Errorf("traced run emits\n%s\nwant\n%s", got, want)
			}
			if traced.Metrics["parallel.streams_identical"].Value != 1 || traced.Metrics["bench.gomaxprocs"].Value < 1 {
				t.Errorf("parallel.streams_identical %v, bench.gomaxprocs %v", traced.Metrics["parallel.streams_identical"], traced.Metrics["bench.gomaxprocs"])
			}
			checkTrace(t, filepath.Join(dir, "trace_"+w.Name+".json"), cfg.minTraced, traced)
		})
	}
}

// checkTrace holds the span file to its bookkeeping rules and recomputes the
// unattributed time from it.
func checkTrace(t *testing.T, path string, rounds int, res *result) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Schema != "scdc-bench-trace/1" || tf.Seed != 2 || len(tf.Spans) == 0 {
		t.Fatalf("trace header %q seed %d, %d spans", tf.Schema, tf.Seed, len(tf.Spans))
	}
	childNS := map[int]int64{} // product children's summed duration, by parent
	names := map[string]bool{}
	roundsSeen := map[int]bool{}
	for i, s := range tf.Spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Source == "bench" {
			names[s.Name] = true
		}
		if s.Parent == -1 {
			if roundsSeen[s.Round] {
				t.Errorf("round id %d has two root spans", s.Round)
			}
			roundsSeen[s.Round] = true
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d %s: parent %d does not exist before it", s.ID, s.Name, s.Parent)
		}
		p := tf.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %s [%d,%d]", s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
		if s.Round != p.Round {
			t.Errorf("span %d %s is in round %d, its parent in round %d", s.ID, s.Name, s.Round, p.Round)
		}
		if s.Source == "product" && p.Source == "product" {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, want := range []string{"round", "layers", "parallel", "scdc.CompressWithStats", "scdc.DecompressObserved", "engine.Compress", "engine.Decompress",
		"core.choose_encoding", "entropy.analyze", "huffman.encode", "huffman.decode", "rice.encode", "rice.decode",
		"lossless.compress", "lossless.decompress", "lossless.auto_compress"} {
		if !names[want] {
			t.Errorf("no driver span named %s in the trace", want)
		}
	}
	// Root minus the product's child spans, signed, per traced round.
	self := map[string][]float64{}
	for _, s := range tf.Spans {
		if s.Source == "product" && tf.Spans[s.Parent].Source == "bench" {
			self[s.Name] = append(self[s.Name], float64(s.EndNS-s.StartNS-childNS[s.ID])/1e6)
		}
	}
	for _, dir := range []string{"compress", "decompress"} {
		got := res.Metrics["scdc.unattributed_"+dir+"_ms"].Value
		if len(self[dir]) != rounds || math.Abs(got-median(self[dir])) > 1e-9 {
			t.Errorf("scdc.unattributed_%s_ms = %g; the trace has %d root spans with median self time %g", dir, got, len(self[dir]), median(self[dir]))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	got := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if want := [3]float64{3.5, 13.5, 31}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got, want := quartiles([]float64{1, 2, 3, 4, 5}), [3]float64{1.5, 3, 4.5}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestReportAA(t *testing.T) {
	mk := func(scale float64) series {
		s := series{}
		for _, d := range endToEnd {
			for i := 0; i < 5; i++ {
				s.add(d.Name, scale*(100+0.1*float64(i)))
			}
		}
		return s
	}
	var out bytes.Buffer
	if bad := reportAA(&out, "w", 5, [2]series{mk(1), mk(1.001)}); bad != 0 {
		t.Errorf("sides 0.1%% apart: %d metrics outside their bound\n%s", bad, out.String())
	}
	// 1.5% apart is outside the 1% bound of psnr_db alone.
	if bad := reportAA(io.Discard, "w", 5, [2]series{mk(1), mk(1.015)}); bad != 1 {
		t.Errorf("sides 1.5%% apart: %d metrics outside their bound, want 1", bad)
	}
}
