package parallel

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// importers are the only packages allowed to import this one: the chunk
// fan-out of the public package and the transfer experiment's pools. A
// field is coded on its calling goroutine, so no codec package may start
// a pool of its own.
var importers = map[string]bool{
	".":                 true,
	"internal/parallel": true,
	"internal/transfer": true,
}

// TestImporters walks the module's non-test sources and fails on any
// import of this package from outside importers.
func TestImporters(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// testdata trees and nested modules (benchmark/) are not
			// packages of this module.
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		seen++
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "scdc/internal/parallel" && !importers[filepath.ToSlash(dir)] {
				t.Errorf("%s imports scdc/internal/parallel; only the root package and internal/transfer may", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 100 {
		t.Fatalf("walked %d source files from %s; the module root was not found", seen, root)
	}
}
