// Command scdcgc is the compiler-diagnostic gate (`make lint-gc`): it
// recompiles the hot packages with `-gcflags='-m=2 -d=ssa/check_bce'`
// and enforces the //scdc:inline, //scdc:noalloc and //scdc:nobounds
// directives through internal/analysis/gcgate. A kernel helper that
// stops inlining, a quantize body that starts allocating, or a fast path
// that regains a bounds check fails the build with the compiler's own
// reasoning attached. See DESIGN.md §6.9.
//
// Usage:
//
//	scdcgc [-root dir]        gate the hot packages
//	scdcgc -list              print the directive manifest and exit
//
// Diagnostic grammar drifts across Go releases, so on a toolchain the
// parser has not been validated against the gate skips with a message
// and exit 0 — a false pass on an exotic toolchain is recoverable, a
// false failure blocks every build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"scdc/internal/analysis/gcgate"
)

// gatePkgs is the hot-package set: every package whose kernels carry
// gate directives, compiled together so cross-package call sites (e.g.
// sz3 calling interp.Mid2) are checked too.
var gatePkgs = []gcgate.Pkg{
	{Dir: "internal/interp", Path: "scdc/internal/interp"},
	{Dir: "internal/quantizer", Path: "scdc/internal/quantizer"},
	{Dir: "internal/core", Path: "scdc/internal/core"},
	{Dir: "internal/sz3", Path: "scdc/internal/sz3"},
	{Dir: "internal/lattice", Path: "scdc/internal/lattice"},
	{Dir: "internal/hpez", Path: "scdc/internal/hpez"},
	{Dir: "internal/mgard", Path: "scdc/internal/mgard"},
	{Dir: "internal/qoz", Path: "scdc/internal/qoz"},
	{Dir: "internal/shard", Path: "scdc/internal/shard"},
	{Dir: "internal/entropy", Path: "scdc/internal/entropy"},
	{Dir: "internal/huffman", Path: "scdc/internal/huffman"},
	{Dir: "internal/rice", Path: "scdc/internal/rice"},
	{Dir: "internal/lossless", Path: "scdc/internal/lossless"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scdcgc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root directory")
	list := fs.Bool("list", false, "print the directive manifest and exit")
	goVersion := fs.String("goversion", runtime.Version(), "toolchain version to validate against (tests override)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !gcgate.SupportedGoVersion(*goVersion) {
		fmt.Fprintf(stdout, "scdcgc: skipping — %s is not a validated toolchain for the -m=2/check_bce grammar (gate validated on go1.22–go1.24)\n", *goVersion)
		return 0
	}

	set, err := gcgate.Collect(*root, gatePkgs)
	if err != nil {
		fmt.Fprintln(stderr, "scdcgc:", err)
		return 2
	}

	if *list {
		manifest := gcgate.Manifest(set)
		names := make([]string, 0, len(manifest))
		for n := range manifest {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-60s %s\n", n, strings.Join(manifest[n], ","))
		}
		return 0
	}

	dirs := make([]string, len(gatePkgs))
	for i, p := range gatePkgs {
		dirs[i] = p.Dir
	}
	diags, err := gcgate.CompilerDiags(*root, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "scdcgc:", err)
		return 2
	}
	violations := gcgate.Check(set, diags)
	for _, v := range violations {
		fmt.Fprintln(stdout, v.String())
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "scdcgc: %d violation(s) across %d directive function(s)\n", len(violations), len(set.Targets))
		return 1
	}
	fmt.Fprintf(stdout, "scdcgc: %d directive function(s) hold (%d compiler diagnostics checked)\n", len(set.Targets), len(diags))
	return 0
}
