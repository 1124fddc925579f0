// Package errsentinel enforces the codec stack's error discipline: there
// are three verdicts — ErrCorrupt, ErrIntegrity, ErrBadOptions — declared
// once, in the leaf package internal/verdict, and every error a decoder
// constructs wraps one of them via %w, so errors.Is(err, scdc.ErrCorrupt)
// holds for a failure raised at any layer of the stack.
//
// In any package that imports the leaf package, the analyzer flags a
// package-level error root of its own (var ErrX = errors.New(...)): a
// second vocabulary is how a failure becomes unclassifiable from outside
// internal/. The leaf package itself is where roots live, and a package
// that does not speak the vocabulary at all (transform, grid) is not a
// codec layer and keeps its own argument errors.
//
// Inside functions whose name marks them as decoder-facing (Decompress*,
// Decode*, parse*, inspect*, *Footer, ...), it additionally flags:
//
//   - fmt.Errorf calls that format an error value with %v or %s instead
//     of wrapping it with %w — errors.Is/As cannot see through such a
//     flattening, which breaks hostile-input tests that probe for the
//     verdict from outer layers;
//   - fmt.Errorf calls with no %w directive at all (the error joins no
//     chain);
//   - naked errors.New calls, which produce anonymous, unclassifiable
//     errors on paths where callers must distinguish corruption from
//     integrity failure.
//
// Whether the %w operand really is (or carries) a verdict is a property
// of values, not of syntax; the damage table of verdict_test.go and the
// fuzz targets check it for every stream they can construct.
package errsentinel

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"

	"scdc/internal/analysis"
)

// leafName is the package that declares the verdicts (internal/verdict;
// a stand-in of the same name under testdata/src for the fixtures).
const leafName = "verdict"

// Analyzer is the errsentinel analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errsentinel",
	Doc: "decode-path errors must wrap a verdict of internal/verdict via %w, " +
		"and no package that imports it may declare an error root of its own " +
		"(one error vocabulary, PR 18)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if speaksVerdicts(pass) {
		checkRoots(pass)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.DecodeFuncRx.MatchString(fn.Name.Name) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// speaksVerdicts reports whether the package imports the leaf package.
func speaksVerdicts(pass *analysis.Pass) bool {
	return slices.ContainsFunc(pass.Pkg.Imports(), func(p *types.Package) bool {
		return path.Base(p.Path()) == leafName
	})
}

// checkRoots flags every package-level variable initialised with
// errors.New.
func checkRoots(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					call, ok := ast.Unparen(v).(*ast.CallExpr)
					if !ok {
						continue
					}
					if pkg, name, _ := analysis.PkgFunc(pass.Info, call); pkg == "errors" && name == "New" {
						pass.Reportf(call.Pos(),
							"package-level error root declared outside internal/%s: wrap verdict.ErrCorrupt, ErrIntegrity or ErrBadOptions with %%w and name the package in the message",
							leafName)
					}
				}
			}
		}
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := analysis.PkgFunc(pass.Info, call)
		if !ok {
			return true
		}
		switch {
		case pkg == "errors" && name == "New":
			pass.Reportf(call.Pos(),
				"naked errors.New in decode path %s: wrap verdict.ErrCorrupt (or ErrIntegrity) so callers can classify the failure",
				fn.Name.Name)
		case pkg == "fmt" && name == "Errorf":
			checkErrorf(pass, fn, call)
		}
		return true
	})
}

func checkErrorf(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	format, ok := analysis.StringLit(call.Args[0])
	if !ok {
		return // non-literal format: out of scope
	}
	verbs := analysis.FormatVerbs(format)
	wraps := false
	flagged := false
	for _, v := range verbs {
		argIdx := 1 + v.Arg
		if argIdx >= len(call.Args) {
			continue // malformed call; go vet owns that diagnosis
		}
		if v.Verb == 'w' {
			wraps = true
			continue
		}
		if analysis.IsErrorType(pass.TypeOf(call.Args[argIdx])) {
			pass.Reportf(call.Args[argIdx].Pos(),
				"error value formatted with %%%c in decode path %s: use %%w so errors.Is sees the wrapped cause",
				v.Verb, fn.Name.Name)
			flagged = true
		}
	}
	if !wraps && !flagged {
		pass.Reportf(call.Pos(),
			"decode-path error in %s wraps no sentinel: include a verdict with %%w (e.g. %%w: pkg: detail with verdict.ErrCorrupt)",
			fn.Name.Name)
	}
}
