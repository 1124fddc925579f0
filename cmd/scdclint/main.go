// Command scdclint is the project's one static gate. Over the packages
// of internal/analysis/suite it runs seven analyzers that machine-check
// invariants the test suite can only probe (stream determinism, typed
// error sentinels, bounded decode-path allocation, nil-guarded
// observation, pooled-scratch hygiene, parallel closure purity, hot-path
// construct bans) and the compiler-diagnostic gate ("gcgate"), which
// recompiles the same packages with `-gcflags='-m=2 -d=ssa/check_bce'` and
// enforces the //scdc:inline, //scdc:noalloc and //scdc:nobounds
// directives through internal/analysis/gcgate. See DESIGN.md §8 and §6.9
// for the invariant catalog.
//
// Usage:
//
//	scdclint [-root dir] [step ...]   run the gate
//	scdclint [-root dir] -list        list the steps and the directive manifest
//
// A step is an analyzer name or "gcgate"; with none named, every step
// runs. Exit status is 1 when any step reports a finding and 2 when the
// gate cannot run (bad flag, unknown step, load or build failure).
//
// The gate's diagnostic grammar drifts across Go releases, so on a
// toolchain the parser has not been validated against the gcgate step
// skips with a message rather than failing falsely.
//
// The suite is intentionally dependency-free: it drives the stdlib
// go/parser + go/types (source importer) through internal/analysis
// rather than golang.org/x/tools, which this build environment cannot
// fetch. The Analyzer/Pass surface mirrors go/analysis so a future
// migration is mechanical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"scdc/internal/analysis"
	"scdc/internal/analysis/gcgate"
	"scdc/internal/analysis/load"
	"scdc/internal/analysis/suite"
)

// gateStep is the step name of the compiler-diagnostic gate.
const gateStep = "gcgate"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scdclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root directory")
	list := fs.Bool("list", false, "list the steps and the directive manifest, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, gate, err := selectSteps(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "scdclint:", err)
		return 2
	}
	pkgs, err := loadPackages(*root)
	if err != nil {
		fmt.Fprintln(stderr, "scdclint:", err)
		return 2
	}
	if *list {
		return listSteps(*root, pkgs, stdout, stderr)
	}
	code := lint(pkgs, selected, stdout, stderr)
	if gate && code != 2 {
		code = max(code, gcGate(*root, pkgs, runtime.Version(), stdout, stderr))
	}
	return code
}

// selectSteps resolves step names to the analyzer subset and whether the
// compiler gate runs, defaulting to every step.
func selectSteps(names []string) ([]*analysis.Analyzer, bool, error) {
	if len(names) == 0 {
		return suite.Analyzers, true, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite.Analyzers))
	for _, a := range suite.Analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	gate := false
	for _, n := range names {
		if n == gateStep {
			gate = true
			continue
		}
		a, ok := byName[n]
		if !ok {
			known := []string{gateStep}
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, false, fmt.Errorf("unknown step %q (have: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, gate, nil
}

// loadPackages parses and type-checks the suite's packages once, for
// every step to share.
func loadPackages(root string) ([]*load.Package, error) {
	loader := load.NewLoader()
	pkgs := make([]*load.Package, len(suite.Packages))
	for i, pkgPath := range suite.Packages {
		pkg, err := loader.LoadDir(suite.Dir(root, pkgPath), pkgPath)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", pkgPath, err)
		}
		pkgs[i] = pkg
	}
	return pkgs, nil
}

// lint runs the selected analyzers over the packages and prints every
// diagnostic.
func lint(pkgs []*load.Package, selected []*analysis.Analyzer, stdout, stderr io.Writer) int {
	findings := 0
	for _, pkg := range pkgs {
		for _, a := range selected {
			diags, err := analysis.Run(pkg, a)
			if err != nil {
				fmt.Fprintf(stderr, "scdclint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
			for _, d := range diags {
				fmt.Fprintln(stdout, d.String())
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "scdclint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// gcGate checks every gate directive of the packages against one real
// compile's diagnostics, or skips when goVersion is not a toolchain the
// diagnostic parser was validated on.
func gcGate(root string, pkgs []*load.Package, goVersion string, stdout, stderr io.Writer) int {
	if !gcgate.SupportedGoVersion(goVersion) {
		fmt.Fprintf(stdout, "scdclint: gcgate skipping — %s is not a validated toolchain for the -m=2/check_bce grammar (gate validated on go1.22–go1.24)\n", goVersion)
		return 0
	}
	set, err := gcgate.Collect(root, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "scdclint: gcgate:", err)
		return 2
	}
	diags, err := gcgate.CompilerDiags(root, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "scdclint: gcgate:", err)
		return 2
	}
	violations := gcgate.Check(set, diags)
	for _, v := range violations {
		fmt.Fprintln(stdout, v.String())
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "scdclint: gcgate: %d violation(s) across %d directive function(s)\n", len(violations), len(set.Targets))
		return 1
	}
	fmt.Fprintf(stdout, "scdclint: gcgate: %d directive function(s) hold (%d compiler diagnostics checked)\n", len(set.Targets), len(diags))
	return 0
}

// listSteps prints the analyzer inventory, the gate step and the
// directive manifest: every function under gate enforcement with the
// directives it carries.
func listSteps(root string, pkgs []*load.Package, stdout, stderr io.Writer) int {
	for _, a := range suite.Analyzers {
		fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(stdout, "%-18s %s\n\n", gateStep, "//scdc:inline, //scdc:noalloc and //scdc:nobounds hold in the compiler's -m=2/check_bce output")
	set, err := gcgate.Collect(root, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "scdclint: gcgate:", err)
		return 2
	}
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
