// Package obsguard enforces the two telemetry invariants of PR 3's
// nil-means-off observation design:
//
//  1. Nil guard: a method call on an obs.Span/obs.Recorder — or on the
//     aggregation layer's agg.Registry/Histogram/Counter/Gauge, which
//     follow the same nil-means-off contract — whose arguments do real
//     work (any non-builtin, non-conversion function call — think
//     entropy.Dist.EntropyBits or fmt.Sprintf) must be dominated by a nil
//     check on an obs value. The disabled path is contractually
//     zero-cost (TestNilFastPathZeroAllocs and
//     TestNilRegistryZeroAllocs pin it); an unguarded expensive argument
//     silently pays the computation even when observation is off.
//
//  2. Span lifecycle: every wall-clock span started in a function
//     (sp.Child, rec.Span, or a helper returning *obs.Span) must be
//     ended in that function on every return path — either a defer
//     sp.End(), or an End with no return statement between start and
//     End. A leaked span reports a zero duration and corrupts the stage
//     tree. Accumulating spans (ChildAccum) are exempt: their End is
//     documented as a no-op. Spans returned to the caller are exempt as
//     handoffs (the caller owns the End).
package obsguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"scdc/internal/analysis"
)

// Analyzer is the obsguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obsguard",
	Doc: "obs computations must sit behind the nil guard and every span " +
		"must End on all return paths (nil-means-off invariant, PR 3)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	scopes := analysis.Scopes(pass.Files)
	// Guard regions are lexical: a call positioned inside an
	// `if sp != nil` body is guarded even when a closure boundary sits
	// between the if and the call. Collect regions across every scope
	// first, then check each scope's calls against the full set.
	var regions []guardRegion
	for _, sc := range scopes {
		regions = append(regions, guardRegions(pass, sc)...)
	}
	for _, sc := range scopes {
		checkNilGuards(pass, sc, regions)
		checkSpanEnds(pass, sc)
	}
	return nil
}

// isObsType reports whether t is (a pointer to) a nil-means-off
// telemetry type: obs.Span / obs.Recorder, or the aggregation layer's
// agg.Registry / agg.Histogram / agg.Counter / agg.Gauge, whose methods
// (Publish, Observe, Add, Set) follow the same nil-receiver no-op
// contract. Matching by package name rather than full path keeps the
// analyzer testable against fixture stand-ins.
func isObsType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Name() {
	case "obs":
		switch named.Obj().Name() {
		case "Span", "Recorder":
			return true
		}
	case "agg":
		switch named.Obj().Name() {
		case "Registry", "Histogram", "Counter", "Gauge":
			return true
		}
	}
	return false
}

// --- invariant 1: nil guards around expensive observation ---

// guardRegion is a source range within which observation calls are known
// to run only when some obs value is non-nil.
type guardRegion struct{ from, to token.Pos }

// guardRegions collects the nil-guarded ranges of one scope.
func guardRegions(pass *analysis.Pass, sc analysis.Scope) []guardRegion {
	var regions []guardRegion
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condHasObsNilCheck(pass, ifs.Cond, token.NEQ) {
			regions = append(regions, guardRegion{ifs.Body.Pos(), ifs.Body.End()})
		}
		if condHasObsNilCheck(pass, ifs.Cond, token.EQL) && terminates(ifs.Body) {
			// `if sp == nil { return ... }`: everything after the if runs
			// with sp non-nil.
			regions = append(regions, guardRegion{ifs.End(), sc.Body.End()})
		}
		return true
	})
	return regions
}

// checkNilGuards flags obs method calls with expensive arguments outside
// every nil-guarded region.
func checkNilGuards(pass *analysis.Pass, sc analysis.Scope, regions []guardRegion) {
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, recv, ok := analysis.Method(pass.Info, call)
		if !ok || !isObsType(pass.TypeOf(recv)) {
			return true
		}
		exp := expensiveArg(pass, call)
		if exp == nil {
			return true
		}
		for _, r := range regions {
			if call.Pos() >= r.from && call.Pos() < r.to {
				return true
			}
		}
		pass.Reportf(exp.Pos(),
			"argument of %s.%s does real work outside a nil guard: wrap in `if <span> != nil` so disabled observation stays zero-cost",
			types.ExprString(recv), fn.Name())
		return true
	})
}

// condHasObsNilCheck reports whether the condition contains
// `<obs-typed expr> <op> nil` (op is token.NEQ or token.EQL), possibly
// inside && / || chains.
func condHasObsNilCheck(pass *analysis.Pass, cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if isNilIdent(pass, y) && isObsType(pass.TypeOf(x)) {
			found = true
		}
		if isNilIdent(pass, x) && isObsType(pass.TypeOf(y)) {
			found = true
		}
		return true
	})
	return found
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

// terminates reports whether a block always transfers control away
// (return, branch, panic) in its last statement.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// expensiveArg returns the first argument containing a call that does
// real work: not a conversion, not a cheap builtin, not another obs
// method (which is itself nil-safe).
func expensiveArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	for _, arg := range call.Args {
		expensive := false
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok || expensive {
				return !expensive
			}
			if tv, ok := pass.Info.Types[ast.Unparen(inner.Fun)]; ok && tv.IsType() {
				return true // conversion: descend into its operand
			}
			if id, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok {
				if _, isB := pass.Info.Uses[id].(*types.Builtin); isB {
					return true // len/cap/min/max and friends
				}
			}
			if _, recv, ok := analysis.Method(pass.Info, inner); ok && isObsType(pass.TypeOf(recv)) {
				return true // nested obs call, nil-safe by contract
			}
			expensive = true
			return false
		})
		if expensive {
			return arg
		}
	}
	return nil
}

// --- invariant 2: End on every return path ---

// spanStart is one tracked wall-clock span creation.
type spanStart struct {
	obj  types.Object // the variable holding the span
	pos  token.Pos
	name string
}

// checkSpanEnds verifies the start/End pairing within one scope.
func checkSpanEnds(pass *analysis.Pass, sc analysis.Scope) {
	var starts []spanStart
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !createsWallClockSpan(pass, call) {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return true
		}
		starts = append(starts, spanStart{obj: obj, pos: as.Pos(), name: id.Name})
		return true
	})
	if len(starts) == 0 {
		return
	}

	type usage struct {
		deferredEnd bool
		endPos      []token.Pos
		handoff     bool
	}
	use := make(map[types.Object]*usage)
	for _, st := range starts {
		use[st.obj] = &usage{}
	}
	lookup := func(e ast.Expr) *usage {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return nil
		}
		return use[obj]
	}
	var returns []token.Pos
	analysis.WalkScope(sc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if fn, recv, ok := analysis.Method(pass.Info, n.Call); ok && fn.Name() == "End" {
				if u := lookup(recv); u != nil {
					u.deferredEnd = true
				}
			}
		case *ast.CallExpr:
			if fn, recv, ok := analysis.Method(pass.Info, n); ok && fn.Name() == "End" {
				if u := lookup(recv); u != nil {
					u.endPos = append(u.endPos, n.Pos())
				}
			}
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if u := use[pass.Info.Uses[id]]; u != nil {
							u.handoff = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	for _, st := range starts {
		u := use[st.obj]
		if u.deferredEnd || u.handoff {
			continue
		}
		if len(u.endPos) == 0 {
			pass.Reportf(st.pos,
				"span %s is started but never ended in %s: every wall-clock span needs End on all return paths (defer %s.End())",
				st.name, sc.Name, st.name)
			continue
		}
		firstEnd := u.endPos[0]
		for _, p := range u.endPos {
			if p < firstEnd {
				firstEnd = p
			}
		}
		for _, ret := range returns {
			if ret > st.pos && ret < firstEnd {
				pass.Reportf(ret,
					"return before %s.End() in %s leaks the span on this path: End before returning or use defer %s.End()",
					st.name, sc.Name, st.name)
			}
		}
	}
}

// createsWallClockSpan reports whether the call starts a span this scope
// must End: a Child/Span method on an obs value, or any call returning
// *obs.Span (a helper that opens one). ChildAccum is exempt — its End is
// a documented no-op.
func createsWallClockSpan(pass *analysis.Pass, call *ast.CallExpr) bool {
	if fn, recv, ok := analysis.Method(pass.Info, call); ok && isObsType(pass.TypeOf(recv)) {
		switch fn.Name() {
		case "Child", "Span":
			return true
		default:
			return false
		}
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "obs"
}
