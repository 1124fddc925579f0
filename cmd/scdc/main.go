// Command scdc compresses and decompresses raw binary scientific data
// files with the library's error-bounded compressors.
//
// Compress a 3D float32 volume with SZ3+QP at absolute bound 1e-3:
//
//	scdc -z -in data.f32 -out data.scdc -dims 256x384x384 -dtype f32 \
//	     -alg SZ3 -qp -eb 1e-3
//
// Decompress:
//
//	scdc -x -in data.scdc -out restored.f32 -dtype f32
//
// Generate a synthetic benchmark field instead of reading a file:
//
//	scdc -z -dataset Miranda -out miranda.scdc -alg QoZ -qp -rel 1e-4
//
// -shards K writes the entropy stream as K independently decodable
// Huffman shards sharing one code table, and -lossless auto picks store,
// Huffman or flate by measurement, as a sharded container past 64 KB.
// -workers N spreads those shards, and the chunks of a chunked container,
// across N goroutines in both directions; prediction, quantization and QP
// run on one. The output is bit-identical for every N, and a sharded
// stream can be decoded with -workers whatever -workers compressed it:
//
//	scdc -z -in data.f32 -out data.scdc -dims 512x512x512 -eb 1e-3 \
//	     -qp -shards 8 -lossless auto
//	scdc -x -in data.scdc -out restored.f32 -workers 8
//
// -stats prints a per-stage span tree (interpolation, quantization, QP,
// Huffman, lossless) and writes the full scdc-stats/1 JSON report next to
// the output (override with -statsout). -cpuprofile, -memprofile and
// -trace wire the standard runtime profilers around the whole run:
//
//	scdc -z -dataset Miranda -out m.scdc -rel 1e-4 -qp -stats \
//	     -cpuprofile cpu.pprof -trace run.trace
//
// Positional arguments after the flags are a compress batch: every file
// is read with the shared -dims/-dtype, compressed with the shared
// options, and written next to its input (or into the -out directory).
// A batch with -stats folds all runs into one aggregate registry and
// prints per-stage latency distributions instead of N span trees
// (-statsout then writes the scdc-agg/1 snapshot JSON):
//
//	scdc -z -dims 64x64x64 -eb 1e-3 -qp -stats step*.f32
//
// -serve addr binds an HTTP listener before the batch starts and keeps
// it up after the batch completes (until SIGINT/SIGTERM), exposing
// /metrics (Prometheus text), /metrics.json (scdc-agg/1 snapshot),
// /debug/vars and /debug/pprof/* — the serving seam a long-running scdcd
// will reuse:
//
//	scdc -z -dims 64x64x64 -eb 1e-3 -qp -serve :9090 step*.f32
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
	"time"

	"scdc"
	"scdc/datasets"
	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/obs/agg"
	"scdc/internal/qoi"
)

// Test seams for the -serve loop: testServeReady (when set) receives the
// bound listener address once the endpoints are live, and testServeStop
// (when non-nil) replaces the interrupt signal as the shutdown trigger.
var (
	testServeReady func(addr string)
	testServeStop  <-chan struct{}
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scdc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scdc", flag.ContinueOnError)
	var (
		compress   = fs.Bool("z", false, "compress")
		decompress = fs.Bool("x", false, "decompress")
		in         = fs.String("in", "", "input file (raw floats for -z, scdc stream for -x)")
		out        = fs.String("out", "", "output file")
		dimsArg    = fs.String("dims", "", "input dimensions, e.g. 256x384x384 (first dim slowest)")
		dtype      = fs.String("dtype", "f32", "raw element type: f32 or f64 (little endian)")
		algArg     = fs.String("alg", "SZ3", "algorithm: SZ3, QoZ, HPEZ, MGARD, ZFP, TTHRESH, SPERR")
		qp         = fs.Bool("qp", false, "enable quantization index prediction (interpolation-based algorithms)")
		eb         = fs.Float64("eb", 0, "absolute error bound")
		rel        = fs.Float64("rel", 0, "value-range-relative error bound")
		dataset    = fs.String("dataset", "", "synthesize this benchmark dataset instead of reading -in")
		field      = fs.Int("field", 0, "dataset field index (with -dataset)")
		seed       = fs.Int64("seed", 1, "dataset synthesis seed (with -dataset)")
		verify     = fs.Bool("verify", false, "after -z, decompress and report quality metrics, compression ratio and bit rate")
		workers    = fs.Int("workers", 1, "goroutines for the sharded entropy and lossless stages and for chunks (compress and decompress); output is identical for any value")
		shards     = fs.Int("shards", 0, "split the entropy stream into this many Huffman shards for parallel decode (0 = single stream)")
		entropyArg = fs.String("entropy", "huffman", "entropy coder for the quantization index stream: huffman, auto or rice")
		llArg      = fs.String("lossless", "default", "lossless back-end: default (legacy whole-buffer flate), auto (store, huffman or flate by measurement; sharded parallel container past 64 KB) or store")
		serveAddr  = fs.String("serve", "", "serve /metrics, /metrics.json and /debug/pprof on this address; stays up after the batch until interrupted")
		stats      = fs.Bool("stats", false, "print a per-stage span tree and write the scdc-stats/1 JSON report")
		statsOut   = fs.String("statsout", "", "stats JSON path (default <out>.stats.json; with -stats)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace (runtime/trace) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	inputs := fs.Args()
	switch {
	case *compress == *decompress:
		return fmt.Errorf("exactly one of -z and -x is required")
	case *decompress && len(inputs) > 0:
		return fmt.Errorf("positional input files are a compress batch; use -in with -x")
	case *decompress && *serveAddr != "":
		return fmt.Errorf("-serve requires a compress run (-z)")
	case len(inputs) > 0 && (*in != "" || *dataset != ""):
		return fmt.Errorf("positional input files conflict with -in/-dataset")
	case len(inputs) == 0 && *out == "":
		return fmt.Errorf("-out is required")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scdc: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scdc: memprofile:", err)
			}
		}()
	}

	statsPath := *statsOut
	if *stats && statsPath == "" && len(inputs) == 0 {
		statsPath = *out + ".stats.json"
	}

	if *decompress {
		return doDecompress(*in, *out, *dtype, *workers, *stats, statsPath, stdout)
	}

	alg, err := scdc.ParseAlgorithm(*algArg)
	if err != nil {
		return err
	}
	coder, err := scdc.ParseEntropyCoder(*entropyArg)
	if err != nil {
		return err
	}
	llc, err := scdc.ParseLosslessCodec(*llArg)
	if err != nil {
		return err
	}
	opts := scdc.Options{Algorithm: alg, ErrorBound: *eb, RelativeBound: *rel,
		Workers: *workers, Shards: *shards, Entropy: coder, Lossless: llc}
	if *qp {
		opts.QP = scdc.DefaultQP()
	}

	// The aggregate registry backs both /metrics (-serve) and the batch
	// -stats rendering; single-run -stats keeps its span tree.
	var reg *agg.Registry
	if *serveAddr != "" || (len(inputs) > 0 && *stats) {
		reg = agg.New()
	}

	srv, err := startServe(*serveAddr, reg, stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}

	if len(inputs) > 0 {
		if err := runBatch(inputs, *out, *dtype, *dimsArg, opts, *stats, statsPath, reg, stdout); err != nil {
			return err
		}
		return waitServe(srv, stdout)
	}

	var data []float64
	var dims []int
	switch {
	case *dataset != "":
		data, dims, err = datasets.Generate(*dataset, *field, nil, *seed)
		if err != nil {
			return err
		}
	case *in != "":
		dims, err = parseDims(*dimsArg)
		if err != nil {
			return err
		}
		data, err = readRaw(*in, *dtype, dims)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -in or -dataset is required with -z")
	}

	t0 := time.Now()
	stream, st, err := compressOne(data, dims, opts, *stats, reg)
	if err != nil {
		return err
	}
	dt := time.Since(t0)
	if err := os.WriteFile(*out, stream, 0o644); err != nil {
		return err
	}
	raw := len(data) * 8
	fmt.Fprintf(stdout, "%s %v dims=%v %d -> %d bytes  CR=%.2f  %.1f MB/s\n",
		*out, alg, dims, raw, len(stream),
		scdc.CompressionRatio(raw, len(stream)),
		float64(raw)/1e6/dt.Seconds())

	if *stats {
		if err := emitStats(stdout, st, statsPath); err != nil {
			return err
		}
	}

	if *verify {
		res, err := scdc.Decompress(stream)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		psnr, _ := scdc.PSNR(data, res.Data)
		maxErr, _ := scdc.MaxAbsError(data, res.Data)
		fmt.Fprintf(stdout, "verify: PSNR=%.2f dB  max|err|=%.3g  CR=%.2f  bits/value=%.3f\n",
			psnr, maxErr, scdc.CompressionRatio(raw, len(stream)), 8*float64(len(stream))/float64(len(data)))
		// Quantity-of-interest check: regional average and derivative
		// errors against their closed-form bounds (see internal/qoi).
		fo, err1 := grid.FromSlice(data, dims...)
		fd, err2 := grid.FromSlice(res.Data, dims...)
		if err1 == nil && err2 == nil {
			if rep, err := qoi.Check(fo, fd, maxErr); err == nil {
				fmt.Fprintf(stdout, "verify: QoI avg err=%.3g (bound %.3g)  deriv err=%.3g (bound %.3g)\n",
					rep.AvgErr, rep.AvgBound, rep.MaxDerivErr, rep.DerivBound)
			}
		}
	}
	return waitServe(srv, stdout)
}

// startServe binds addr (when non-empty) and serves the registry's
// exposition and profiling endpoints on it. The listener is live before
// this returns, so a batch can be scraped while it runs.
func startServe(addr string, reg *agg.Registry, stdout io.Writer) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	agg.Mount(mux, reg)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(stdout, "serve: telemetry on http://%s/metrics\n", ln.Addr())
	if testServeReady != nil {
		testServeReady(ln.Addr().String())
	}
	return srv, nil
}

// waitServe blocks a -serve run after its batch completes, keeping the
// telemetry endpoints up until SIGINT/SIGTERM (or the test stop seam).
// Without -serve it returns immediately.
func waitServe(srv *http.Server, stdout io.Writer) error {
	if srv == nil {
		return nil
	}
	fmt.Fprintln(stdout, "serve: batch complete, metrics live until interrupt")
	stop := testServeStop
	if stop == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(ch)
		done := make(chan struct{})
		go func() { <-ch; close(done) }()
		stop = done
	}
	<-stop
	return srv.Close()
}

// runBatch compresses every input file with the shared dims, dtype and
// options, publishing each run into reg. With stats on it emits one
// aggregate rendering (and optionally the scdc-agg/1 snapshot JSON)
// instead of one span tree per input. Outputs land next to their inputs,
// or inside outDir when -out names a directory.
func runBatch(inputs []string, outDir, dtype, dimsArg string, opts scdc.Options, stats bool, statsPath string, reg *agg.Registry, stdout io.Writer) error {
	dims, err := parseDims(dimsArg)
	if err != nil {
		return err
	}
	for _, path := range inputs {
		data, err := readRaw(path, dtype, dims)
		if err != nil {
			return err
		}
		t0 := time.Now()
		stream, _, err := compressOne(data, dims, opts, false, reg)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dt := time.Since(t0)
		outPath := path + ".scdc"
		if outDir != "" {
			outPath = filepath.Join(outDir, filepath.Base(path)+".scdc")
		}
		if err := os.WriteFile(outPath, stream, 0o644); err != nil {
			return err
		}
		raw := len(data) * 8
		fmt.Fprintf(stdout, "%s %v dims=%v %d -> %d bytes  CR=%.2f  %.1f MB/s\n",
			outPath, opts.Algorithm, dims, raw, len(stream),
			scdc.CompressionRatio(raw, len(stream)),
			float64(raw)/1e6/dt.Seconds())
	}
	if stats && reg != nil {
		fmt.Fprintf(stdout, "stats: aggregated %d inputs\n", len(inputs))
		fmt.Fprint(stdout, reg.Render())
		if statsPath != "" {
			blob, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(statsPath, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "stats: wrote %s\n", statsPath)
		}
	}
	return nil
}

// compressOne runs one compression, through the stats door when the run
// reports it (stats) or aggregates it (reg non-nil), and publishes it into
// reg.
func compressOne(data []float64, dims []int, opts scdc.Options, stats bool, reg *agg.Registry) ([]byte, *scdc.CompressStats, error) {
	if !stats && reg == nil {
		stream, err := scdc.Compress(data, dims, opts)
		return stream, nil, err
	}
	stream, st, err := scdc.CompressWithStats(data, dims, opts)
	st.Publish(reg)
	return stream, st, err
}

// emitStats prints the human-readable span tree and writes the JSON report.
func emitStats(w io.Writer, st *scdc.CompressStats, path string) error {
	fmt.Fprintf(w, "stats: %s %s dims=%v points=%d CR=%.2f bits/value=%.3f\n",
		st.Op, st.Algorithm, st.Dims, st.Points, st.Ratio, st.BitsPerValue)
	fmt.Fprint(w, obs.Flamegraph(st.Report))
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "stats: wrote %s\n", path)
	return nil
}

func doDecompress(in, out, dtype string, workers int, stats bool, statsPath string, stdout io.Writer) error {
	if in == "" {
		return fmt.Errorf("-in is required with -x")
	}
	stream, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var res *scdc.Result
	if stats {
		res, err = scdc.DecompressObserved(stream, workers)
	} else {
		res, err = scdc.DecompressParallel(stream, workers)
	}
	if err != nil {
		return err
	}
	dt := time.Since(t0)
	var buf []byte
	switch dtype {
	case "f32":
		buf = make([]byte, 4*len(res.Data))
		for i, v := range res.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
		}
	case "f64":
		buf = make([]byte, 8*len(res.Data))
		for i, v := range res.Data {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
	default:
		return fmt.Errorf("unknown dtype %q", dtype)
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s %v dims=%v  %.1f MB/s\n", out, res.Algorithm, res.Dims,
		float64(len(buf))/1e6/dt.Seconds())
	if res.Stats != nil {
		if err := emitStats(stdout, res.Stats, statsPath); err != nil {
			return err
		}
	}
	return nil
}

func parseDims(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-dims is required with -in")
	}
	return grid.ParseDims(s)
}

func readRaw(path, dtype string, dims []int) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	switch dtype {
	case "f32":
		if len(raw) != 4*n {
			return nil, fmt.Errorf("file holds %d bytes, dims need %d", len(raw), 4*n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
		return out, nil
	case "f64":
		if len(raw) != 8*n {
			return nil, fmt.Errorf("file holds %d bytes, dims need %d", len(raw), 8*n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown dtype %q", dtype)
	}
}
