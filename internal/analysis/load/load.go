// Package load parses and type-checks Go packages for the scdclint
// analyzers using only the standard library.
//
// Two resolution modes exist, selected by FixtureRoot:
//
//   - Module mode (FixtureRoot == ""): the loader parses the target
//     package's sources itself and resolves every import through the
//     standard library's from-source importer, which understands both
//     GOROOT packages and this module's own import paths. No network, no
//     compiled export data and no x/tools are required.
//
//   - Fixture mode (FixtureRoot set): import paths are first resolved as
//     directories under FixtureRoot (the analysistest convention of a
//     self-contained testdata/src tree, so fixtures can provide stand-in
//     packages like a fake "obs"); anything not found there falls back to
//     the from-source importer, which keeps genuine standard-library
//     imports working inside fixtures.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads packages into a shared FileSet, caching fixture imports so
// a fixture tree is type-checked once per Loader.
type Loader struct {
	Fset *token.FileSet
	// FixtureRoot, when non-empty, resolves import paths as directories
	// beneath it before consulting the fallback importer.
	FixtureRoot string

	fallback types.Importer
	cache    map[string]*types.Package
}

// NewLoader returns a Loader backed by the standard library's from-source
// importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		fallback: importer.ForCompiler(fset, "source", nil),
		cache:    make(map[string]*types.Package),
	}
}

// Import implements types.Importer: fixture directories first (when
// configured), then the from-source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.FixtureRoot != "" {
		if pkg, ok := l.cache[path]; ok {
			return pkg, nil
		}
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			p, err := l.LoadDir(dir, path)
			if err != nil {
				return nil, err
			}
			l.cache[path] = p.Types
			return p.Types, nil
		}
	}
	return l.fallback.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files (_test.go) are excluded: the analyzers check shipped
// code, and fixtures never use the suffix.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// goFileNames lists the non-test Go files of dir in lexical order.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}
