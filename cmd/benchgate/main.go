// Command benchgate is the bench-regression gate over the append-only
// results/BENCH_*.json ledger: it compares the newest snapshot's
// per-stage nanoseconds and compression ratio against the previous
// snapshot and exits non-zero when a stage slowed or the ratio dropped
// beyond tolerance. The ledger is frozen — benchmark/run.sh replaced the
// per-PR snapshots — so the gate is no longer part of `make check`.
//
//	benchgate -dir results            # discover BENCH_pr<N>.json, compare newest vs previous
//	benchgate old.json new.json       # explicit ledger, oldest first
//
// Tolerances default wide (-tol 0.5, i.e. +50% stage time) because the
// ledger is recorded on whatever machine ran the PR's benchmarks —
// single-core CI included — and stages below the -minns noise floor are
// skipped entirely. The gate catches gross regressions (an accidentally
// quadratic stage, a broken fast path, a ratio collapse), not percent
// drift; tighten -tol on a quiet benchmarking box.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

func main() {
	if err := gate(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// ledgerEntry is the slice of a BENCH_*.json snapshot the gate reads;
// other keys are PR-specific and ignored.
type ledgerEntry struct {
	path string
	Run  struct {
		Ratio float64 `json:"ratio"`
	} `json:"run"`
	StageNS map[string]int64 `json:"stage_ns"`
	// LosslessBench holds the per-codec lossless back-end rows
	// (BenchmarkLosslessCodecs): compress/decompress time per codec and
	// the compression ratio the compress series reported. Snapshots
	// recorded before the sharded/auto back-end simply omit the section.
	LosslessBench map[string]losslessRow `json:"lossless_bench"`
}

// losslessRow is one per-codec lossless benchmark row.
type losslessRow struct {
	NsOp  float64 `json:"ns_op"`
	Ratio float64 `json:"ratio"`
}

// comparable reports whether the entry carries anything the gate can
// compare (the earliest ledger snapshots predate the stage_ns schema).
func (e *ledgerEntry) comparable() bool {
	return len(e.StageNS) > 0 || e.Run.Ratio > 0
}

var benchName = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// discover lists dir's BENCH_pr<N>.json files in ascending PR order.
func discover(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, numbered{n, filepath.Join(dir, e.Name())})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	paths := make([]string, len(found))
	for i, f := range found {
		paths[i] = f.path
	}
	return paths, nil
}

func load(path string) (*ledgerEntry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e := &ledgerEntry{path: path}
	if err := json.Unmarshal(blob, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func gate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		dir   = fs.String("dir", "results", "ledger directory holding BENCH_pr<N>.json snapshots")
		tol   = fs.Float64("tol", 0.5, "allowed fractional stage-time growth (0.5 = +50%)")
		crTol = fs.Float64("crtol", 0.02, "allowed fractional compression-ratio drop")
		minNS = fs.Int64("minns", 2e6, "skip stages where both snapshots are below this noise floor (ns)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		var err error
		paths, err = discover(*dir)
		if err != nil {
			return err
		}
	}
	if len(paths) < 2 {
		return fmt.Errorf("need at least two ledger snapshots, have %d", len(paths))
	}
	entries := make([]*ledgerEntry, len(paths))
	for i, p := range paths {
		e, err := load(p)
		if err != nil {
			return err
		}
		entries[i] = e
	}

	newest := entries[len(entries)-1]
	if !newest.comparable() {
		return fmt.Errorf("%s carries neither stage_ns nor run.ratio", newest.path)
	}
	// Baseline on the nearest earlier snapshot with comparable data: the
	// oldest ledger entries predate the stage_ns schema.
	var prev *ledgerEntry
	for i := len(entries) - 2; i >= 0; i-- {
		if entries[i].comparable() {
			prev = entries[i]
			break
		}
	}
	if prev == nil {
		fmt.Fprintf(stdout, "benchgate: no comparable baseline before %s; pass\n", newest.path)
		return nil
	}

	fmt.Fprintf(stdout, "benchgate: %s vs %s (tol +%.0f%% stage time, -%.0f%% ratio, %.1fms floor)\n",
		newest.path, prev.path, *tol*100, *crTol*100, float64(*minNS)/1e6)
	var regressions int
	stages := make([]string, 0, len(prev.StageNS))
	for k := range prev.StageNS {
		if _, ok := newest.StageNS[k]; ok {
			stages = append(stages, k)
		}
	}
	sort.Strings(stages)
	for _, k := range stages {
		p, n := prev.StageNS[k], newest.StageNS[k]
		if p < *minNS && n < *minNS {
			fmt.Fprintf(stdout, "  %-10s %12d -> %12d ns  (below noise floor, skipped)\n", k, p, n)
			continue
		}
		delta := float64(n-p) / float64(p)
		verdict := "ok"
		if float64(n) > float64(p)*(1+*tol) {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "  %-10s %12d -> %12d ns  %+6.1f%%  %s\n", k, p, n, delta*100, verdict)
	}
	// Per-codec lossless rows gate like stages: shared codecs only, the
	// same fractional tolerances, the same noise floor on times.
	var losslessKeys []string
	for k := range prev.LosslessBench {
		if _, ok := newest.LosslessBench[k]; ok {
			losslessKeys = append(losslessKeys, k)
		}
	}
	sort.Strings(losslessKeys)
	for _, k := range losslessKeys {
		p, n := prev.LosslessBench[k], newest.LosslessBench[k]
		if p.NsOp > 0 && n.NsOp > 0 {
			if int64(p.NsOp) < *minNS && int64(n.NsOp) < *minNS {
				fmt.Fprintf(stdout, "  lossless/%-24s %12.0f -> %12.0f ns  (below noise floor, skipped)\n", k, p.NsOp, n.NsOp)
			} else {
				delta := (n.NsOp - p.NsOp) / p.NsOp
				verdict := "ok"
				if n.NsOp > p.NsOp*(1+*tol) {
					verdict = "REGRESSION"
					regressions++
				}
				fmt.Fprintf(stdout, "  lossless/%-24s %12.0f -> %12.0f ns  %+6.1f%%  %s\n", k, p.NsOp, n.NsOp, delta*100, verdict)
			}
		}
		if p.Ratio > 0 && n.Ratio > 0 {
			delta := (n.Ratio - p.Ratio) / p.Ratio
			verdict := "ok"
			if n.Ratio < p.Ratio*(1-*crTol) {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  lossless/%-24s %12.4f -> %12.4f     %+6.2f%%  %s\n", k+" ratio", p.Ratio, n.Ratio, delta*100, verdict)
		}
	}
	if prev.Run.Ratio > 0 && newest.Run.Ratio > 0 {
		delta := (newest.Run.Ratio - prev.Run.Ratio) / prev.Run.Ratio
		verdict := "ok"
		if newest.Run.Ratio < prev.Run.Ratio*(1-*crTol) {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "  %-10s %12.4f -> %12.4f     %+6.2f%%  %s\n",
			"ratio", prev.Run.Ratio, newest.Run.Ratio, delta*100, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) in %s vs %s", regressions, newest.path, prev.path)
	}
	fmt.Fprintln(stdout, "benchgate: pass")
	return nil
}
