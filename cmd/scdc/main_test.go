package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scdc"
)

func TestParseDims(t *testing.T) {
	dims, err := parseDims("4x5x6")
	if err != nil || len(dims) != 3 || dims[0] != 4 || dims[2] != 6 {
		t.Fatalf("parseDims: %v %v", dims, err)
	}
	for _, bad := range []string{"", "4x-1", "axb", "0x3"} {
		if _, err := parseDims(bad); err == nil {
			t.Errorf("parseDims(%q) accepted", bad)
		}
	}
}

func writeRaw32(t *testing.T, vals []float32) string {
	t.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	path := filepath.Join(t.TempDir(), "data.f32")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadRaw(t *testing.T) {
	path := writeRaw32(t, []float32{1, 2, 3, 4, 5, 6})
	data, err := readRaw(path, "f32", []int{2, 3})
	if err != nil || len(data) != 6 || data[4] != 5 {
		t.Fatalf("readRaw: %v %v", data, err)
	}
	if _, err := readRaw(path, "f32", []int{7}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := readRaw(path, "f64", []int{6}); err == nil {
		t.Error("wrong dtype size accepted")
	}
	if _, err := readRaw(path, "bogus", []int{6}); err == nil {
		t.Error("unknown dtype accepted")
	}
	if _, err := readRaw(filepath.Join(t.TempDir(), "missing"), "f32", []int{1}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDoDecompressRoundTrip(t *testing.T) {
	// Compress via the library, decompress via the CLI path.
	data := make([]float64, 4*5*6)
	for i := range data {
		data[i] = math.Sin(float64(i) / 9)
	}
	stream, err := scdc.Compress(data, []int{4, 5, 6}, scdc.Options{Algorithm: scdc.SZ3, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "x.scdc")
	out := filepath.Join(dir, "x.f64")
	if err := os.WriteFile(in, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := doDecompress(in, out, "f64", 1, false, "", io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8*len(data) {
		t.Fatalf("output size %d", len(raw))
	}
	for i := range data {
		got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.Abs(got-data[i]) > 1e-4 {
			t.Fatalf("value %d: %g vs %g", i, got, data[i])
		}
	}
	if err := doDecompress(in, out, "bogus", 1, false, "", io.Discard); err == nil {
		t.Error("unknown dtype accepted")
	}
	if err := doDecompress("", out, "f64", 1, false, "", io.Discard); err == nil {
		t.Error("missing input accepted")
	}
}

// TestRunDecompressChunked: -x reads a CompressChunked stream with no flag
// of its own — Decompress opens every stream the library writes — and
// -stats reports it under op decompress_chunked with the per-chunk spans.
func TestRunDecompressChunked(t *testing.T) {
	dims := []int{12, 5, 6}
	data := make([]float64, 12*5*6)
	for i := range data {
		data[i] = math.Sin(float64(i) / 9)
	}
	stream, err := scdc.CompressChunked(data, dims, scdc.Options{Algorithm: scdc.SZ3, ErrorBound: 1e-4, QP: scdc.DefaultQP(), Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "c.scdc")
	out := filepath.Join(dir, "c.f64")
	statsPath := filepath.Join(dir, "c.stats.json")
	if err := os.WriteFile(in, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-x", "-in", in, "-out", out, "-dtype", "f64", "-workers", "2",
		"-stats", "-statsout", statsPath}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil || len(raw) != 8*len(data) {
		t.Fatalf("restored file: %v (%d bytes)", err, len(raw))
	}
	for i := range data {
		got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.Abs(got-data[i]) > 1e-4 {
			t.Fatalf("value %d: %g vs %g", i, got, data[i])
		}
	}
	blob, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var st scdc.CompressStats
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if st.Op != "decompress_chunked" || st.Report.Find("chunk[2]") == nil {
		t.Errorf("stats op %q, report:\n%s", st.Op, buf.String())
	}
	// Without -stats the same stream takes the unobserved door.
	if err := doDecompress(in, out, "f64", 3, false, "", io.Discard); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(out); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("unobserved decode differs from the observed one (%v)", err)
	}
}

// TestRunDecompressDamaged: -x tells the two decode verdicts apart. A
// stream cut short below the container, with a footer that matches what
// is left, is "corrupt stream" — the engine's lossless stage says so, two
// layers down; a stream whose footer does not match its bytes is
// "integrity check failed". Either way run returns the error (exit 1)
// and nothing panics or is written.
func TestRunDecompressDamaged(t *testing.T) {
	data := make([]float64, 8*9*10)
	for i := range data {
		data[i] = math.Sin(float64(i) / 9)
	}
	stream, err := scdc.Compress(data, []int{8, 9, 10}, scdc.Options{Algorithm: scdc.QoZ, ErrorBound: 1e-4, QP: scdc.DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	cut := stream[:len(stream)-4-5] // drop the footer and five payload bytes
	resealed := binary.LittleEndian.AppendUint32(bytes.Clone(cut), crc32.Checksum(cut, crc32.MakeTable(crc32.Castagnoli)))
	flipped := bytes.Clone(stream)
	flipped[len(flipped)-1] ^= 1
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		stream []byte
		want   error
		text   string
	}{
		"resealed-truncation": {resealed, scdc.ErrCorrupt, "corrupt stream"},
		"flipped-footer":      {flipped, scdc.ErrIntegrity, "integrity check failed"},
	} {
		in, out := filepath.Join(dir, name+".scdc"), filepath.Join(dir, name+".f64")
		if err := os.WriteFile(in, tc.stream, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, extra := range [][]string{nil, {"-stats", "-workers", "2"}} {
			err := run(append([]string{"-x", "-in", in, "-out", out, "-dtype", "f64"}, extra...), io.Discard)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.text) {
				t.Errorf("%s %v: got %v, want %q", name, extra, err, tc.text)
			}
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: output written for a rejected stream", name)
		}
	}
}

// TestRunStatsAndProfiles drives the full CLI path: -z -stats -verify with
// profiling hooks, then -x -stats on the produced stream.
func TestRunStatsAndProfiles(t *testing.T) {
	dir := t.TempDir()
	// A smooth 3D field so SZ3 stays in interpolation mode.
	n0, n1, n2 := 16, 20, 24
	vals := make([]float32, n0*n1*n2)
	for i := range vals {
		x := float64(i%n2) / float64(n2)
		y := float64((i/n2)%n1) / float64(n1)
		z := float64(i/(n1*n2)) / float64(n0)
		vals[i] = float32(math.Sin(7*x)*math.Cos(5*y) + 0.5*z*z)
	}
	in := writeRaw32(t, vals)
	out := filepath.Join(dir, "x.scdc")
	statsPath := filepath.Join(dir, "x.stats.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "run.trace")

	var buf strings.Builder
	err := run([]string{"-z", "-in", in, "-out", out, "-dims", "16x20x24",
		"-alg", "SZ3", "-qp", "-eb", "0.01", "-workers", "2",
		"-stats", "-statsout", statsPath, "-verify",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, stage := range []string{"interp", "quantize", "qp", "huffman", "lossless"} {
		if !strings.Contains(got, stage) {
			t.Errorf("stats output missing stage %q:\n%s", stage, got)
		}
	}
	if !strings.Contains(got, "bits/value=") || !strings.Contains(got, "CR=") {
		t.Errorf("verify output missing bit rate / ratio:\n%s", got)
	}

	blob, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var st scdc.CompressStats
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if st.Schema != scdc.StatsSchema || st.Report == nil {
		t.Errorf("stats JSON incomplete: schema=%q report=%v", st.Schema, st.Report != nil)
	}
	for _, p := range []string{cpu, mem, trc} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}

	// Round-trip through -x -stats.
	restored := filepath.Join(dir, "x.f32")
	xStats := filepath.Join(dir, "x.dec.stats.json")
	buf.Reset()
	err = run([]string{"-x", "-in", out, "-out", restored, "-dtype", "f32",
		"-workers", "2", "-stats", "-statsout", xStats}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "decompress") {
		t.Errorf("decompress stats output missing span tree:\n%s", buf.String())
	}
	if _, err := os.Stat(xStats); err != nil {
		t.Errorf("decompress stats JSON missing: %v", err)
	}
	raw, err := os.ReadFile(restored)
	if err != nil || len(raw) != 4*len(vals) {
		t.Fatalf("restored file: %v (%d bytes)", err, len(raw))
	}
	for i := range vals {
		got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if math.Abs(float64(got)-float64(vals[i])) > 0.01+1e-6 {
			t.Fatalf("value %d: %g vs %g", i, got, vals[i])
		}
	}
}

// TestRunFlagValidation pins the flag-set error paths.
func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-z", "-x", "-out", "y"}, io.Discard); err == nil {
		t.Error("both -z and -x accepted")
	}
	if err := run([]string{"-z"}, io.Discard); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run([]string{"-bogusflag"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-z", "-out", filepath.Join(t.TempDir(), "y")}, io.Discard); err == nil {
		t.Error("missing -in/-dataset accepted")
	}
}

// TestRunDatasetDims: -dims with -dataset sets the synthesized geometry
// instead of being ignored in favour of the dataset's default.
func TestRunDatasetDims(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.scdc")
	var buf strings.Builder
	if err := run([]string{"-z", "-dataset", "Miranda", "-dims", "8x12x16", "-out", out, "-rel", "1e-3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dims=[8 12 16]") {
		t.Errorf("-dims not applied to -dataset:\n%s", buf.String())
	}
	if err := run([]string{"-z", "-dataset", "Miranda", "-dims", "8x0", "-out", out, "-rel", "1e-3"}, io.Discard); err == nil {
		t.Error("bad -dims with -dataset accepted")
	}
}

// smoothBatchFiles writes n small raw f32 volumes of the same smooth
// field family and returns their paths plus the dims string.
func smoothBatchFiles(t *testing.T, n int) ([]string, string) {
	t.Helper()
	n0, n1, n2 := 8, 10, 12
	paths := make([]string, n)
	for f := 0; f < n; f++ {
		vals := make([]float32, n0*n1*n2)
		for i := range vals {
			x := float64(i%n2) / float64(n2)
			y := float64((i/n2)%n1) / float64(n1)
			z := float64(i/(n1*n2)) / float64(n0)
			vals[i] = float32(math.Sin(7*x+float64(f))*math.Cos(5*y) + 0.5*z*z)
		}
		paths[f] = writeRaw32(t, vals)
	}
	return paths, "8x10x12"
}

// TestRunBatchAggregateStats drives the positional batch path: three
// inputs with -stats produce one aggregate rendering plus the scdc-agg/1
// snapshot, not three span trees.
func TestRunBatchAggregateStats(t *testing.T) {
	paths, dims := smoothBatchFiles(t, 3)
	snapPath := filepath.Join(t.TempDir(), "agg.json")
	var buf strings.Builder
	args := []string{"-z", "-dims", dims, "-eb", "0.01", "-qp",
		"-stats", "-statsout", snapPath}
	if err := run(append(args, paths...), &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "aggregated 3 inputs") {
		t.Errorf("missing aggregate header:\n%s", got)
	}
	if !strings.Contains(got, "compress/SZ3") || !strings.Contains(got, "n=3") {
		t.Errorf("aggregate rendering missing group/count:\n%s", got)
	}
	// One aggregate, not one tree per input: the per-run span tree prints
	// each stage with a share column; the aggregate prints p50/p90/p99.
	if !strings.Contains(got, "p99=") {
		t.Errorf("aggregate quantiles missing:\n%s", got)
	}
	for _, p := range paths {
		if _, err := os.Stat(p + ".scdc"); err != nil {
			t.Errorf("batch output missing for %s: %v", p, err)
		}
	}
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema string `json:"schema"`
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if snap.Schema != "scdc-agg/1" || len(snap.Series) == 0 {
		t.Errorf("snapshot incomplete: schema=%q series=%d", snap.Schema, len(snap.Series))
	}
}

// TestRunServeScrape runs a -serve batch, scrapes /metrics and
// /metrics.json while the server lingers, then releases it through the
// test stop seam.
func TestRunServeScrape(t *testing.T) {
	paths, dims := smoothBatchFiles(t, 2)
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	testServeReady = func(addr string) { addrCh <- addr }
	testServeStop = stop
	defer func() { testServeReady, testServeStop = nil, nil }()

	errCh := make(chan error, 1)
	var buf strings.Builder
	go func() {
		args := []string{"-z", "-dims", dims, "-eb", "0.01", "-qp", "-serve", "127.0.0.1:0"}
		errCh <- run(append(args, paths...), &buf)
	}()
	addr := <-addrCh

	// The batch publishes as it goes; poll until both ops have landed.
	var text string
	for i := 0; i < 200; i++ {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text = string(b)
		if strings.Contains(text, `scdc_ops_total{algorithm="SZ3",op="compress"} 2`) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`scdc_ops_total{algorithm="SZ3",op="compress"} 2`,
		`# TYPE scdc_stage_ns histogram`,
		`scdc_stage_ns_bucket{algorithm="SZ3",op="compress",stage="interp",le="+Inf"} 2`,
		`# TYPE scdc_compression_ratio gauge`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema string `json:"schema"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Schema != "scdc-agg/1" {
		t.Errorf("/metrics.json: err=%v schema=%q", err, snap.Schema)
	}

	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serve: telemetry on http://") {
		t.Errorf("serve banner missing:\n%s", buf.String())
	}
}

// TestRunBatchFlagValidation pins the batch/serve-specific error paths.
func TestRunBatchFlagValidation(t *testing.T) {
	if err := run([]string{"-x", "-out", "y", "a.f32"}, io.Discard); err == nil {
		t.Error("positional inputs with -x accepted")
	}
	if err := run([]string{"-x", "-in", "a.scdc", "-out", "y", "-serve", ":0"}, io.Discard); err == nil {
		t.Error("-serve with -x accepted")
	}
	if err := run([]string{"-z", "-dataset", "Miranda", "a.f32"}, io.Discard); err == nil {
		t.Error("positional inputs with -dataset accepted")
	}
	if err := run([]string{"-z", "a.f32"}, io.Discard); err == nil {
		t.Error("batch without -dims accepted")
	}
}
