package suite_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scdc/internal/analysis/suite"
)

// TestEveryAnalyzerIsTested holds each registered analyzer to the two
// halves of its test: a fixture tree at internal/analysis/<name>/testdata/src
// with at least one `// want` expectation (analysistest.Run fails on any
// unmatched want or unwanted diagnostic there), and a seeded mutation of
// the real tree (analysistest.RunMutant), so an analyzer that guards
// nothing the module ships cannot be registered.
func TestEveryAnalyzerIsTested(t *testing.T) {
	for _, a := range suite.Analyzers {
		src := filepath.Join("..", a.Name, "testdata", "src")
		wants := 0
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			wants += strings.Count(string(data), "// want ")
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if wants == 0 {
			t.Errorf("%s: no `// want` expectation under %s; an analyzer needs a positive fixture", a.Name, src)
		}
		tests, err := filepath.Glob(filepath.Join("..", a.Name, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		mutants := 0
		for _, p := range tests {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			mutants += strings.Count(string(data), "analysistest.RunMutant(")
		}
		if mutants == 0 {
			t.Errorf("%s: no analysistest.RunMutant call in its tests; seed a fault into a real function it must flag", a.Name)
		}
	}
}
