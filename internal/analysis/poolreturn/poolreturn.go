// Package poolreturn enforces the pooled-scratch discipline of the hot
// paths (PR 1): an object taken from a sync.Pool must go back on every
// exit path of the function that took it. A Get whose Put is skipped on
// an early return doesn't leak memory, but it silently degrades the pool
// to an allocator — exactly the steady-state allocation regression the
// pooling was built to remove — and it never shows up in tests, only in
// long-running profiles.
//
// The analyzer understands three spellings:
//
//   - direct (*sync.Pool).Get / Put calls;
//   - same-package wrapper functions or methods whose bodies call
//     Get/Put on a package-level pool (getWriter/putCountBuf,
//     decoder.release), matched through the pool variable they touch;
//   - the cross-package scratch APIs of internal/quantizer and
//     internal/shard, matched by the GetXxx/PutXxx naming convention and
//     paired by the type of the pooled object (shard's buffers go back in
//     bulk through shard.Release, so a shard.GetBuf is always a handoff
//     into the directory).
//
// A Get with no Put in the same function is accepted only when the
// result (the first one, for a Get that returns more) escapes: returned
// to the caller or stored through a field or index — the handoff pattern
// of the wrapper functions themselves, where the caller owns the Put. A Get whose Put exists but is not
// deferred is flagged when a return statement sits between the two.
package poolreturn

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"scdc/internal/analysis"
)

// Analyzer is the poolreturn analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc: "every sync.Pool Get needs a Put on all exit paths " +
		"(pooled hot-path invariant, PR 1)",
	Run: run,
}

// pooledPkgs names the packages whose exported Get*/Put* functions are
// treated as pool accessors across package boundaries.
var pooledPkgs = map[string]bool{"quantizer": true, "shard": true}

func run(pass *analysis.Pass) error {
	wrappers := collectWrappers(pass)
	for _, sc := range analysis.Scopes(pass.Files) {
		checkScope(pass, sc, wrappers)
	}
	return nil
}

// wrapperInfo classifies package functions that access a pool on the
// caller's behalf.
type wrapperInfo struct {
	gets map[*types.Func]string // func -> pool key
	puts map[*types.Func]string
}

// collectWrappers maps every function or method of this package that
// accesses a sync.Pool on its caller's behalf — calling Get but never Put
// (getWriter, newDecoder) or Put but never Get (putCountBuf, release) —
// to the pool variable it touches. A function with both sides of the
// same pool (Compress) manages its own lifecycle and is checked
// normally, not treated as a wrapper.
func collectWrappers(pass *analysis.Pass) wrapperInfo {
	w := wrapperInfo{gets: make(map[*types.Func]string), puts: make(map[*types.Func]string)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			gets := make(map[string]bool)
			puts := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, key, ok := directPoolCall(pass, call); ok {
					if name == "Get" {
						gets[key] = true
					} else {
						puts[key] = true
					}
				}
				return true
			})
			for key := range gets {
				if !puts[key] {
					w.gets[fn] = key
				}
			}
			for key := range puts {
				if !gets[key] {
					w.puts[fn] = key
				}
			}
		}
	}
	return w
}

// directPoolCall matches `<pool>.Get()` / `<pool>.Put(x)` where <pool>
// is a sync.Pool value and returns the method name plus a stable key for
// the pool variable.
func directPoolCall(pass *analysis.Pass, call *ast.CallExpr) (method, key string, ok bool) {
	fn, recv, isM := analysis.Method(pass.Info, call)
	if !isM || (fn.Name() != "Get" && fn.Name() != "Put") {
		return "", "", false
	}
	t := pass.TypeOf(recv)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Name() != "Pool" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	root := analysis.RootIdent(recv)
	if root == nil {
		return "", "", false
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		return "", "", false
	}
	return fn.Name(), obj.Pkg().Path() + "." + obj.Name(), true
}

// poolCall classifies any call in a function body as a pool Get or Put:
// direct, same-package wrapper, or cross-package convention.
func poolCall(pass *analysis.Pass, call *ast.CallExpr, w wrapperInfo) (method, key string, ok bool) {
	if m, k, isDirect := directPoolCall(pass, call); isDirect {
		return m, k, true
	}
	// Same-package wrappers (functions and methods).
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = pass.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee != nil {
		if k, isGet := w.gets[callee]; isGet {
			return "Get", k, true
		}
		if k, isPut := w.puts[callee]; isPut {
			return "Put", k, true
		}
		// Cross-package convention: a Get* returns the pooled object as
		// its first result and a Put* takes it as its first parameter, and
		// the two pair by that type — quantizer.GetIndexBuf with
		// PutIndexBuf, GetFloatCopy and GetFloatField with PutFloatBuf.
		if callee.Pkg() != nil && callee.Pkg() != pass.Pkg && pooledPkgs[callee.Pkg().Name()] {
			sig := callee.Type().(*types.Signature)
			key := func(t types.Type) string {
				return callee.Pkg().Path() + "." + types.TypeString(t, types.RelativeTo(callee.Pkg()))
			}
			if suffix, isGet := strings.CutPrefix(callee.Name(), "Get"); isGet && suffix != "" && sig.Results().Len() > 0 {
				return "Get", key(sig.Results().At(0).Type()), true
			}
			if suffix, isPut := strings.CutPrefix(callee.Name(), "Put"); isPut && suffix != "" && sig.Params().Len() > 0 {
				return "Put", key(sig.Params().At(0).Type()), true
			}
		}
	}
	return "", "", false
}

type getSite struct {
	pos    token.Pos
	key    string
	result types.Object // variable the Get result was assigned to, or nil
}

type putSite struct {
	pos      token.Pos
	key      string
	deferred bool
}

// checkScope pairs Gets with Puts within one function body.
func checkScope(pass *analysis.Pass, sc analysis.Scope, w wrapperInfo) {
	var gets []getSite
	var puts []putSite
	var returns []token.Pos
	deferredCalls := make(map[*ast.CallExpr]bool)
	claimed := make(map[*ast.CallExpr]bool) // Get calls recorded via their AssignStmt
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.AssignStmt:
			// The pooled object is the first result: `buf, pooled :=
			// quantizer.GetFloatField(n)` tracks buf.
			if len(n.Rhs) == 1 {
				if call := callIn(n.Rhs[0]); call != nil {
					if m, k, ok := poolCall(pass, call, w); ok && m == "Get" {
						var obj types.Object
						if id, isId := n.Lhs[0].(*ast.Ident); isId {
							obj = pass.Info.Defs[id]
							if obj == nil {
								obj = pass.Info.Uses[id]
							}
						}
						gets = append(gets, getSite{pos: call.Pos(), key: k, result: obj})
						claimed[call] = true
						return true
					}
				}
			}
		case *ast.CallExpr:
			if claimed[n] {
				return true
			}
			m, k, ok := poolCall(pass, n, w)
			if !ok {
				return true
			}
			switch m {
			case "Get":
				gets = append(gets, getSite{pos: n.Pos(), key: k})
			case "Put":
				puts = append(puts, putSite{pos: n.Pos(), key: k, deferred: deferredCalls[n]})
			}
		}
		return true
	})
	if len(gets) == 0 {
		return
	}

	for _, g := range gets {
		var keyPuts []putSite
		for _, p := range puts {
			if p.key == g.key {
				keyPuts = append(keyPuts, p)
			}
		}
		if len(keyPuts) == 0 {
			if escapes(pass, sc, g) {
				continue // handoff: the caller owns the Put
			}
			pass.Reportf(g.pos,
				"pool Get (%s) has no matching Put in %s: return the object on every exit path or defer the Put",
				shortKey(g.key), sc.Name)
			continue
		}
		deferred := false
		firstPut := token.Pos(-1)
		for _, p := range keyPuts {
			if p.deferred {
				deferred = true
			}
			if p.pos > g.pos && (firstPut == -1 || p.pos < firstPut) {
				firstPut = p.pos
			}
		}
		if deferred || firstPut == -1 {
			continue
		}
		for _, ret := range returns {
			if ret > g.pos && ret < firstPut {
				pass.Reportf(ret,
					"return between pool Get (%s) and its Put in %s skips the Put on this path: defer the Put right after Get",
					shortKey(g.key), sc.Name)
			}
		}
	}
}

// callIn unwraps assignments like `p := pool.Get().(*T)` down to the
// innermost call expression.
func callIn(e ast.Expr) *ast.CallExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return x
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// escapes reports whether the Get result leaves the function: mentioned
// in a return statement, or stored through a selector, index or deref —
// in either case the object outlives this call frame and the Put is the
// new owner's job. A Get whose whole call sits inside a return statement
// (return pool.Get().(*T)) also escapes.
func escapes(pass *analysis.Pass, sc analysis.Scope, g getSite) bool {
	esc := false
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if g.pos >= n.Pos() && g.pos < n.End() {
				esc = true
				return false
			}
			if g.result != nil && mentions(pass, n, g.result) {
				esc = true
				return false
			}
		case *ast.AssignStmt:
			if g.result == nil {
				return true
			}
			rhsUses := false
			for _, r := range n.Rhs {
				if mentions(pass, r, g.result) {
					rhsUses = true
				}
			}
			if !rhsUses {
				return true
			}
			for _, l := range n.Lhs {
				switch ast.Unparen(l).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					esc = true
					return false
				}
			}
		}
		return true
	})
	return esc
}

// mentions reports whether the subtree uses the object.
func mentions(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// shortKey trims the package path of a pool key for messages.
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
