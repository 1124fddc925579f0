// Package parallelpure defines an Analyzer that checks the purity of
// closures handed to the internal/parallel pool helpers.
//
// The engines' parallelism contract (DESIGN.md §6) is that a worker
// closure communicates results only through disjoint per-item slots:
// `out[i] = ...` or `slots[worker] = ...` under ForEach, `out[i] = ...`
// under Map. Any other
// write to state captured from the enclosing function — a scalar
// accumulator, a captured map, a write through a captured pointer, a
// field update, `s = append(s, ...)` on a captured slice — is a data race
// when workers > 1, and even when it happens to be scheduling-stable it
// makes the stream depend on goroutine interleaving, which the golden
// pins forbid.
//
// The analyzer flags every write inside such a closure whose target is
// captured, unless the target is a slice/array element and the index
// expression mentions at least one variable local to the closure (a
// parameter or a derived local), which is the disjoint-slot idiom. It is
// a static complement to `go test -race`: the race detector only sees
// schedules that actually happen, while this check also catches
// deterministic-but-unsynchronized accumulation on the workers<=1 path.
package parallelpure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"scdc/internal/analysis"
)

// Analyzer flags impure worker closures passed to internal/parallel.
var Analyzer = &analysis.Analyzer{
	Name: "parallelpure",
	Doc:  "worker closures passed to parallel.ForEach / Map must write only per-index slots, never captured state",
	Run:  run,
}

// poolFuncs are the internal/parallel entry points whose final argument
// is a worker closure run concurrently.
var poolFuncs = map[string]bool{
	"ForEach": true,
	"Map":     true,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, name, ok := analysis.PkgFunc(pass.Info, call)
		if !ok || !poolFuncs[name] || !isParallelPkg(pkgPath) {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			// A named function value cannot capture caller state; a bound
			// method could, but the engines never pass one.
			return true
		}
		checkClosure(pass, name, lit)
		return true
	})
	return nil
}

// isParallelPkg matches the pool package by name so fixtures can provide
// a stand-in "parallel" package (same convention as obsguard's "obs").
func isParallelPkg(pkgPath string) bool {
	return pkgPath == "parallel" || strings.HasSuffix(pkgPath, "/parallel")
}

// checkClosure walks the whole closure body — including nested function
// literals, whose writes run on the same worker goroutine — and reports
// writes to variables captured from outside lit.
func checkClosure(pass *analysis.Pass, poolFunc string, lit *ast.FuncLit) {
	// A variable is local to the closure when it is declared inside it
	// (parameters included: their Pos lies within the literal).
	isLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if id.Name == "_" || pass.Info.Defs[id] != nil {
						continue // declaration or blank, not a write to captured state
					}
				}
				checkWrite(pass, poolFunc, lit, lhs, isLocal)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, poolFunc, lit, st.X, isLocal)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				if st.Key != nil {
					checkWrite(pass, poolFunc, lit, st.Key, isLocal)
				}
				if st.Value != nil {
					checkWrite(pass, poolFunc, lit, st.Value, isLocal)
				}
			}
		}
		return true
	})
}

// checkWrite classifies one write target and reports it when it mutates
// captured state outside the disjoint-slot idiom.
func checkWrite(pass *analysis.Pass, poolFunc string, lit *ast.FuncLit, target ast.Expr, isLocal func(types.Object) bool) {
	captured := func(e ast.Expr) (string, bool) {
		id := analysis.RootIdent(e)
		if id == nil {
			return "", false
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || isLocal(v) {
			return "", false
		}
		return id.Name, true
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if name, ok := captured(t); ok {
			pass.Reportf(t.Pos(),
				"closure passed to parallel.%s writes captured variable %q; communicate through a per-index slot instead",
				poolFunc, name)
		}
	case *ast.IndexExpr:
		if tt := pass.TypeOf(t.X); tt != nil {
			if _, isMap := tt.Underlying().(*types.Map); isMap {
				if name, ok := captured(t.X); ok {
					pass.Reportf(t.Pos(),
						"closure passed to parallel.%s writes captured map %q; map writes are unsynchronized across workers",
						poolFunc, name)
				}
				return
			}
		}
		name, ok := captured(t.X)
		if !ok {
			return
		}
		if !mentionsLocal(pass, t.Index, isLocal) {
			pass.Reportf(t.Pos(),
				"closure passed to parallel.%s writes captured slice %q at an index independent of the closure parameters; slots may collide across workers",
				poolFunc, name)
		}
	case *ast.StarExpr:
		if name, ok := captured(t.X); ok {
			pass.Reportf(t.Pos(),
				"closure passed to parallel.%s writes through captured pointer %q", poolFunc, name)
		}
	case *ast.SelectorExpr:
		if name, ok := captured(t); ok {
			pass.Reportf(t.Pos(),
				"closure passed to parallel.%s writes a field of captured %q", poolFunc, name)
		}
	}
}

// mentionsLocal reports whether the expression references at least one
// variable local to the closure — the signature of a per-item disjoint
// index like i, worker, or lo/grain with lo derived from i.
func mentionsLocal(pass *analysis.Pass, e ast.Expr, isLocal func(types.Object) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok && isLocal(v) {
			found = true
		}
		return !found
	})
	return found
}
