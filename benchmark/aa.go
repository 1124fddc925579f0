package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAA measures the benchmark's own repeatability: per workload it runs two
// alternating sets (A, B, A, B, ...) of n gated runs of this same binary,
// run i of either set at seed+i, and reports each side's quartiles. It fails
// when a pair of medians differs by more than the metric's bound, or when a
// side's spread (interquartile distance over median, setup_s excepted) does.
func runAA(only string, n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		var sides [2]series
		sides[0], sides[1] = series{}, series{}
		for i := 0; i < 2*n; i++ {
			side, s := i%2, seed+int64(i/2)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.Name, s, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: result line: %v\n", w.Name, s, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s %c seed %d: %s\n", w.Name, 'A'+side, s, lines[len(lines)-1])
			for name, m := range res.Metrics {
				sides[side].add(name, m.Value)
			}
		}
		bad += reportAA(stdout, w.Name, n, sides)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A FAILED: %d metric(s) outside their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A ok: every pair of medians and every spread is within its bound")
	return 0
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method), which is what the acceptance check
// of BENCHMARK.json computes spreads from; the median is the sample median.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// reportAA prints one workload's A/A table and returns how many metrics are
// outside their bound.
func reportAA(out io.Writer, workload string, n int, sides [2]series) int {
	var b bytes.Buffer
	bad := 0
	fmt.Fprintf(&b, "== %s: A/A, %d runs a side\n", workload, n)
	fmt.Fprintf(&b, "%-24s %-6s %36s %36s %9s %9s %9s\n", "metric", "unit", "A q1 / median / q3", "B q1 / median / q3", "medians", "spread A", "spread B")
	for _, d := range endToEnd {
		var q [2][3]float64
		var spread [2]float64
		for s := 0; s < 2; s++ {
			q[s] = quartiles(sides[s][d.Name])
			spread[s] = (q[s][2] - q[s][0]) / q[s][1]
		}
		diff := q[1][1]/q[0][1] - 1
		if diff < 0 {
			diff = -diff
		}
		verdict := ""
		if diff > d.Bound || (d.Name != "setup_s" && (spread[0] > d.Bound || spread[1] > d.Bound)) {
			verdict = "  OUTSIDE bound " + strconv.FormatFloat(100*d.Bound, 'g', -1, 64) + "%"
			bad++
		}
		fmt.Fprintf(&b, "%-24s %-6s %11.5g /%11.5g /%11.5g %11.5g /%11.5g /%11.5g %8.3f%% %8.3f%% %8.3f%%%s\n",
			d.Name, d.Unit, q[0][0], q[0][1], q[0][2], q[1][0], q[1][1], q[1][2], 100*diff, 100*spread[0], 100*spread[1], verdict)
	}
	out.Write(b.Bytes())
	return bad
}
