package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
)

// DecodeFuncRx marks decoder-facing functions by name: the exported
// Decompress/Decode entry points and their helper spellings (decodeBody,
// parseTableHeader, parseHeader, newDecoder, Inspect). The errsentinel
// and alloccap analyzers both scope to these functions, so the two
// invariants always cover the same surface.
var DecodeFuncRx = regexp.MustCompile(`(?i)(decompress|decod|parse|unmarshal|inspect|footer)`)

// Scope is one function body: a FuncDecl or FuncLit. Analyzers that reason
// about returns, defers or pairing (Get/Put, Start/End) work per scope so
// a closure's control flow is never conflated with its enclosing
// function's.
type Scope struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit owning Body.
	Node ast.Node
	// Name is the declared function name, or "func literal".
	Name string
	Body *ast.BlockStmt
}

// Scopes returns every function body in the files, outermost first.
func Scopes(files []*ast.File) []Scope {
	var out []Scope
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, Scope{Node: fn, Name: fn.Name.Name, Body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, Scope{Node: fn, Name: "func literal", Body: fn.Body})
			}
			return true
		})
	}
	return out
}

// WalkScope walks the statements and expressions of one function body
// without descending into nested function literals, so control-flow
// reasoning (returns, defers) stays within the scope.
func WalkScope(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// PkgFunc resolves a call to a package-level function and reports the
// package path and function name ("fmt", "Errorf"). ok is false for
// method calls, builtins, conversions and locals.
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// Method resolves a call to a method and returns its *types.Func plus the
// receiver expression from the call site. ok is false for non-method
// calls.
func Method(info *types.Info, call *ast.CallExpr) (fn *types.Func, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	f, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || f.Type().(*types.Signature).Recv() == nil {
		return nil, nil, false
	}
	return f, sel.X, true
}

// IsErrorType reports whether t implements the error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errIface != nil && types.Implements(t, errIface)
}

// RootIdent returns the leftmost identifier of an expression chain
// (x.f[i].g -> x), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Verb is one formatting directive of a format string mapped to the
// argument index it consumes.
type Verb struct {
	Verb rune
	Arg  int
}

// FormatVerbs maps the directives of a Printf-style format string to
// argument indexes (0-based, counting from the first variadic argument).
// '*' width/precision markers consume an argument each; '%%' consumes
// none.
func FormatVerbs(format string) []Verb {
	var verbs []Verb
	arg := 0
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		// Flags, width, precision, argument indexes.
		for i < len(rs) {
			r := rs[i]
			if r == '*' {
				arg++
				i++
				continue
			}
			if r == '+' || r == '-' || r == '#' || r == ' ' || r == '0' || r == '.' ||
				r == '[' || r == ']' || (r >= '0' && r <= '9') {
				i++
				continue
			}
			break
		}
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		verbs = append(verbs, Verb{Verb: rs[i], Arg: arg})
		arg++
	}
	return verbs
}

// StringLit returns the constant value of a string literal expression.
func StringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
