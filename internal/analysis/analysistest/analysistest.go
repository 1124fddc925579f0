// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want "regexp" comments, mirroring the
// golang.org/x/tools analysistest convention on top of the local
// dependency-free framework.
//
// Fixtures live under <analyzer>/testdata/src/<pkg>/. A fixture line that
// must be flagged carries a trailing comment:
//
//	m := make(map[int]int)
//	for k := range m { // want "iteration over map"
//	}
//
// Several expectations on one line are written as several quoted regexps.
// Every diagnostic must be wanted and every want must be matched; either
// mismatch fails the test.
//
// RunMutant is the other half of an analyzer's test: it seeds one fault
// into a copy of a real package of the module and requires the analyzer
// to flag it, so an analyzer proves it guards the tree it ships with, not
// only its fixtures.
package analysistest

import (
	"go/build"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scdc/internal/analysis"
	"scdc/internal/analysis/load"
)

// Run loads each fixture package beneath root (a testdata/src directory)
// and checks the analyzer's diagnostics against the // want comments.
// It returns the diagnostics for optional further assertions.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgs ...string) []analysis.Diagnostic {
	t.Helper()
	loader := load.NewLoader()
	loader.FixtureRoot = root
	var all []analysis.Diagnostic
	for _, pkgPath := range pkgs {
		pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(pkgPath)), pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
		diags, err := analysis.Run(pkg, a)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		all = append(all, diags...)
		checkWants(t, pkg, a.Name, diags)
	}
	return all
}

// RunMutant copies the non-test Go files of the module package pkgPath
// into a temporary directory, replaces the one occurrence of old in file
// with mutant, loads the copy under the real import path and runs the
// analyzer over it. The test fails unless some diagnostic in file matches
// the regexp want, and also if the unmutated package already has such a
// diagnostic or old does not occur exactly once — a mutation that no
// longer applies to the real code must be rewritten, not silently pass.
func RunMutant(t *testing.T, a *analysis.Analyzer, pkgPath, file, old, mutant, want string) {
	t.Helper()
	rx := regexp.MustCompile(want)
	bp, err := build.Import(pkgPath, ".", build.FindOnly)
	if err != nil {
		t.Fatal(err)
	}
	src, tmp := bp.Dir, t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		base := filepath.Base(name)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if base == file {
			text := string(data)
			if n := strings.Count(text, old); n != 1 {
				t.Fatalf("%s/%s: mutation site occurs %d times, want 1:\n%s", pkgPath, file, n, old)
			}
			data = []byte(strings.Replace(text, old, mutant, 1))
		}
		if err := os.WriteFile(filepath.Join(tmp, base), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader := load.NewLoader()
	var others []string
	matches := func(dir string) int {
		pkg, err := loader.LoadDir(dir, pkgPath)
		if err != nil {
			t.Fatalf("loading %s from %s: %v", pkgPath, dir, err)
		}
		diags, err := analysis.Run(pkg, a)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		n := 0
		for _, d := range diags {
			switch {
			case filepath.Base(d.Pos.Filename) == file && rx.MatchString(d.Message):
				n++
			case dir == tmp:
				others = append(others, d.String())
			}
		}
		return n
	}
	if n := matches(src); n != 0 {
		t.Fatalf("%s already reports %d diagnostic(s) matching %q in the unmutated %s", a.Name, n, want, pkgPath)
	}
	if matches(tmp) == 0 {
		t.Errorf("%s is blind to the seeded fault in %s/%s: no diagnostic matches %q; it reported %q",
			a.Name, pkgPath, file, want, others)
	}
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

// checkWants compares diagnostics with the fixture's // want comments.
func checkWants(t *testing.T, pkg *load.Package, name string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, rx := range parseWantRegexps(t, pos, rest) {
					key := wantKey(pos)
					wants[key] = append(wants[key], &want{rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		key := wantKey(d.Pos)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.rx)
			}
		}
	}
}

func wantKey(pos token.Position) string {
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// parseWantRegexps parses a sequence of quoted or backquoted regexps.
func parseWantRegexps(t *testing.T, pos token.Position, s string) []*regexp.Regexp {
	t.Helper()
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s: malformed want comment near %q", pos, s)
		}
		lit, rest, err := cutQuoted(s)
		if err != nil {
			t.Fatalf("%s: malformed want comment: %v", pos, err)
		}
		rx, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		out = append(out, rx)
		s = rest
	}
}

// cutQuoted splits off one leading Go string literal.
func cutQuoted(s string) (lit, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			unq, err := strconv.Unquote(s[:i+1])
			return unq, s[i+1:], err
		}
	}
	return "", "", strconv.ErrSyntax
}
