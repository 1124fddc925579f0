// Command benchmark is the repository's end-to-end benchmark: one rank
// compressing and decompressing one field at a time on one core, four
// workloads, ten gated metrics, and a traced run that times every layer.
// README.md in this directory describes the protocol; BENCHMARK.json at the
// repository root is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

const (
	// runSeconds is how long a run measures by default, and BENCHMARK.json's
	// run_seconds.
	runSeconds = 15
	// minRounds is the floor on untraced rounds of a gated run: p25 of fewer
	// samples did not repeat.
	minRounds = 24
	// minTracedRounds is the floor on rounds of the traced phase, and of the
	// shorter untraced phase that a traced run compares against.
	minTracedRounds = 8
	// setupReps is how often a gated run sets up; setup_s is the median.
	setupReps = 3
	// warmupRounds are untimed rounds between set-up and measurement.
	warmupRounds = 2
)

// config is one run of one workload.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// minRounds and minTraced are the round floors; tests lower them.
	minRounds, minTraced int
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sz3_smooth, qoz_tuned, hpez_block or mgard_tight (with -aa: default all)")
	seed := fs.Int64("seed", 1, "picks the window of the workload's field that is compressed")
	seconds := fs.Float64("seconds", runSeconds, "how long the rounds of a run measure")
	trace := fs.Int("trace", 0, "0: gated end-to-end metrics; 1: per-layer metrics and a span file")
	aa := fs.Int("aa", 0, "A/A mode: run two alternating sets of N gated runs per workload and compare their medians")
	outDir := fs.String("out", ".bench_build", "directory for the span file of a traced run")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		stdout.Write(manifestJSON())
		return 0
	}
	if *aa > 0 {
		return runAA(*name, *aa, *seed, *seconds, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	// One client on one core: with a second P the concurrent collector runs
	// on a core a neighbour may hold, and neither times nor allocation repeat.
	runtime.GOMAXPROCS(1)
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, minRounds: minRounds, minTraced: minTracedRounds}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one run and returns the result line. Everything a person
// reads goes to out first.
func run(cfg config, out io.Writer) (*result, error) {
	o := &ops{}
	w := cfg.w
	fmt.Fprintf(out, "workload %s: %s %v on %s %dx%dx%d float64, rel %g, seed %d, GOMAXPROCS %d, %d CPU online\n",
		w.Name, w.engineName(), w.Alg, w.Dataset, w.Dims[0], w.Dims[1], w.Dims[2], w.Rel, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU())

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var fx *fixture
	var setupSec []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if fx, err = setUp(w, cfg.seed, o); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	compressAlloc, decompressAlloc, err := fx.allocation(o)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupRounds; i++ {
		if err := fx.round(nil, o, false); err != nil {
			return nil, err
		}
	}

	var values map[string]float64
	var defs []metricDef
	if !cfg.trace {
		s, err := fx.measure(cfg.seconds, cfg.minRounds, o)
		if err != nil {
			return nil, err
		}
		values, defs = fx.endToEndMetrics(s, median(setupSec), compressAlloc, decompressAlloc), endToEnd
		fmt.Fprintf(out, "%d rounds, calibration kernel %.0f MB/s (reference host: %d MB/s)\n", s.rounds(), fx.calibMBps(s), calibRefMBps)
		for op, name := range opNames {
			fmt.Fprintf(out, "%-16s ms: min %.2f  p25 %.2f  p50 %.2f  p75 %.2f  max %.2f  (as timed: %.1f MB/s at p25)\n", name,
				1e3*quantile(s.sec[op], 0), 1e3*quantile(s.sec[op], 0.25), 1e3*median(s.sec[op]), 1e3*quantile(s.sec[op], 0.75), 1e3*quantile(s.sec[op], 1), fx.mbps(s.sec[op]))
		}
	} else {
		// A traced run splits its time between an untraced phase, which the
		// traced timings are compared against, and the traced rounds.
		s, err := fx.measure(cfg.seconds/2, cfg.minTraced, o)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		if values, err = fx.traced(cfg.seconds/4, cfg.minTraced, s, tr, o, out); err != nil {
			return nil, err
		}
		defs = perLayer
		path, err := tr.write(cfg.outDir, w.Name, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)
		printMetrics(out, endToEnd, fx.endToEndMetrics(s, median(setupSec), compressAlloc, decompressAlloc), "end to end, from this run's shorter untraced phase (not gated)")
	}

	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	title := "end to end (gated)"
	if cfg.trace {
		title = fmt.Sprintf("per layer (engine = %s)", w.engineName())
	}
	printMetrics(out, defs, values, title)
	if cfg.trace {
		fmt.Fprintf(out, "paper: QP gains up to ~95%% ratio for a 10-25%% throughput cost at bit-identical output; here ratio %+.1f%%, compress %+.1f%%, decompress %+.1f%%\n",
			values["core.qp_ratio_gain_pct"], -values["core.qp_compress_cost_pct"], -values["core.qp_decompress_cost_pct"])
		if values["parallel.procs"] < 2 {
			fmt.Fprintln(out, "parallel.*_speedup: unmeasured (one CPU online)")
		}
	}
	fmt.Fprintf(out, "ops_attempted %d\nops_failed %d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	return res, nil
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]float64, title string) {
	fmt.Fprintf(out, "-- %s\n", title)
	for _, d := range defs {
		gate := ""
		if d.Bound > 0 {
			gate = fmt.Sprintf(", bound %g%%", 100*d.Bound)
		}
		fmt.Fprintf(out, "%-34s %14.6g %-6s (%s is better%s)\n", d.Name, values[d.Name], d.Unit, d.Better, gate)
	}
}

// manifestJSON renders BENCHMARK.json from the driver's own tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables are static
	}
	return append(buf, '\n')
}
