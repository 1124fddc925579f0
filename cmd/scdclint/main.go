// Command scdclint runs the project's static-analysis suite: seven
// analyzers that machine-check invariants the test suite can only probe
// (stream determinism, typed error sentinels, bounded decode-path
// allocation, nil-guarded observation, pooled-scratch hygiene, parallel
// closure purity, hot-path construct bans). See DESIGN.md §8 and §6.9
// for the invariant catalog.
//
// Usage:
//
//	scdclint [-root dir] [analyzer ...]   lint the codec packages
//	scdclint -fixtures                    self-test: each analyzer must
//	                                      fire on its own positive fixtures
//
// With no analyzer names, the whole suite runs. Exit status is 1 when
// any diagnostic is reported (or, under -fixtures, when any analyzer
// stays silent on fixtures built to trip it).
//
// The suite is intentionally dependency-free: it drives the stdlib
// go/parser + go/types (source importer) through internal/analysis
// rather than golang.org/x/tools, which this build environment cannot
// fetch. The Analyzer/Pass surface mirrors go/analysis so a future
// migration is mechanical. The analyzer and package registry lives in
// internal/analysis/suite, shared with the scdclint:ignore audit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scdc/internal/analysis"
	"scdc/internal/analysis/load"
	"scdc/internal/analysis/suite"
)

// analyzers and lintPkgs alias the shared registry; see
// internal/analysis/suite.
var (
	analyzers = suite.Analyzers
	lintPkgs  = suite.Packages
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scdclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root directory")
	fixtures := fs.Bool("fixtures", false,
		"self-test mode: run each analyzer on its own testdata and require at least one diagnostic")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := selectAnalyzers(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "scdclint:", err)
		return 2
	}

	if *fixtures {
		return runFixtures(*root, selected, stdout, stderr)
	}
	return lint(*root, selected, stdout, stderr)
}

// selectAnalyzers resolves analyzer names to the suite subset, defaulting
// to all of them.
func selectAnalyzers(names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// lint runs the selected analyzers over the codec packages and prints
// every diagnostic. Packages are loaded once and shared by all analyzers.
func lint(root string, selected []*analysis.Analyzer, stdout, stderr io.Writer) int {
	loader := load.NewLoader()
	findings := 0
	for _, pkgPath := range lintPkgs {
		pkg, err := loader.LoadDir(suite.Dir(root, pkgPath), pkgPath)
		if err != nil {
			fmt.Fprintf(stderr, "scdclint: load %s: %v\n", pkgPath, err)
			return 2
		}
		for _, a := range selected {
			diags, err := analysis.Run(pkg, a)
			if err != nil {
				fmt.Fprintf(stderr, "scdclint: %s on %s: %v\n", a.Name, pkgPath, err)
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

// runFixtures is the self-test guard wired into `make lint-fixtures`: an
// analyzer that reports nothing on fixtures written to trip it has gone
// blind, and the build should say so rather than quietly passing.
func runFixtures(root string, selected []*analysis.Analyzer, stdout, stderr io.Writer) int {
	failed := 0
	for _, a := range selected {
		testdata := filepath.Join(root, "internal", "analysis", a.Name, "testdata", "src")
		entries, err := os.ReadDir(testdata)
		if err != nil {
			fmt.Fprintf(stderr, "scdclint: %s: no fixtures at %s: %v\n", a.Name, testdata, err)
			failed++
			continue
		}
		loader := load.NewLoader()
		loader.FixtureRoot = testdata
		total := 0
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			pkg, err := loader.LoadDir(filepath.Join(testdata, e.Name()), e.Name())
			if err != nil {
				fmt.Fprintf(stderr, "scdclint: %s: fixture %s: %v\n", a.Name, e.Name(), err)
				failed++
				continue
			}
			diags, err := analysis.Run(pkg, a)
			if err != nil {
				fmt.Fprintf(stderr, "scdclint: %s: fixture %s: %v\n", a.Name, e.Name(), err)
				failed++
				continue
			}
			total += len(diags)
		}
		if total == 0 {
			fmt.Fprintf(stderr, "scdclint: %s reported zero diagnostics on its own fixtures — analyzer is blind\n", a.Name)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "scdclint: %s fires on its fixtures (%d diagnostic(s))\n", a.Name, total)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
