// Package gcgate enforces compiler-level performance invariants from
// source directives, in the style of gcassert but dependency-free.
//
// The kernels' speed rests on compiler behavior the test suite cannot
// observe: a helper inlining into every sweep, a quantize body staying
// allocation-free, a fast-path lookup keeping zero bounds checks. Those
// facts are visible only in the gc compiler's own diagnostics, so the
// gate recompiles the hot packages with
//
//	go build -gcflags='-m=2 -d=ssa/check_bce'
//
// parses the output, and checks it against three doc-comment directives:
//
//	//scdc:inline    the function must be inlinable AND must actually
//	                 inline at every direct call site inside the gated
//	                 package set. go/defer call sites count as failures:
//	                 the body may inline into the deferwrap closure, but
//	                 the deferred wrapper call itself defeats the point
//	                 of tagging a hot helper.
//	//scdc:noalloc   no "escapes to heap" / "moved to heap" diagnostic
//	                 may point inside the function body: the function
//	                 performs no heap allocation the escape analysis can
//	                 see. Parameter-leak notes ("leaking param") are not
//	                 allocations and are ignored.
//	//scdc:nobounds  no "Found IsInBounds" / "Found IsSliceInBounds"
//	                 diagnostic may point inside the function body: every
//	                 slice access is proven in range by the compiler.
//
// Directives live in the function's doc comment (the same block that
// carries //scdc:hot for the hotpath analyzer). Call sites are resolved
// with the stdlib type checker through internal/analysis/load, so a
// directive owner is matched across packages by its fully-qualified name
// rather than by grepping.
//
// Diagnostic grammar drifts across toolchains; SupportedGoVersion gates
// the whole check to the releases this parser was validated against, and
// cmd/scdclint skips the gate (with a message) on anything else rather
// than failing falsely.
package gcgate

import (
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"scdc/internal/analysis/load"
)

// Kind is one directive. The string values match the directive suffix
// (scdc:<kind>).
type Kind string

const (
	KindInline   Kind = "inline"
	KindNoAlloc  Kind = "noalloc"
	KindNoBounds Kind = "nobounds"
)

// Target is one function carrying gate directives.
type Target struct {
	PkgPath string // import path of the declaring package
	PkgName string // package name, used in cross-package inline spellings
	// Name is the compiler's local spelling: "Func", "Recv.Func" or
	// "(*Recv).Func".
	Name string
	// FullName is the type checker's fully-qualified name, stable across
	// independently type-checked packages; call sites match on it.
	FullName string
	File     string // root-relative path of the declaring file
	DeclLine int
	EndLine  int
	Kinds    []Kind
}

// CallSite is one direct call of a target discovered in the gated set.
type CallSite struct {
	File    string // root-relative
	Line    int
	SamePkg bool // call site lives in the target's own package
	// Deferred marks go/defer call sites: under //scdc:inline they are
	// violations by construction (the wrapper call survives even when
	// the body inlines into the deferwrap).
	Deferred bool
}

// Set is the directive universe of one gate run.
type Set struct {
	Targets []*Target
	// Calls maps a target's FullName to its discovered call sites.
	Calls map[string][]CallSite
}

// Diag is one parsed compiler diagnostic.
type Diag struct {
	File string // root-relative, cleaned
	Line int
	Msg  string
}

// Violation is one broken directive.
type Violation struct {
	File   string
	Line   int
	Target string // "pkgpath.Name"
	Kind   Kind
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: [scdc:%s] %s: %s", v.File, v.Line, v.Kind, v.Target, v.Msg)
}

// supportedGoPrefixes lists the toolchain minor versions whose -m=2 and
// ssa/check_bce output this parser was validated against.
var supportedGoPrefixes = []string{"go1.22", "go1.23", "go1.24"}

// SupportedGoVersion reports whether the gate's diagnostic parser is
// validated for the given runtime.Version() string.
func SupportedGoVersion(v string) bool {
	for _, p := range supportedGoPrefixes {
		if v == p || strings.HasPrefix(v, p+".") {
			return true
		}
	}
	return false
}

// Collect gathers, from the gated packages loaded beneath the module
// root, every directive-carrying function plus every direct call site of
// an inline target.
func Collect(root string, pkgs []*load.Package) (*Set, error) {
	set := &Set{Calls: make(map[string][]CallSite)}
	for _, lp := range pkgs {
		ts, err := collectTargets(root, lp)
		if err != nil {
			return nil, err
		}
		set.Targets = append(set.Targets, ts...)
	}
	inline := make(map[string]*Target)
	for _, t := range set.Targets {
		if t.Has(KindInline) {
			inline[t.FullName] = t
		}
	}
	for _, lp := range pkgs {
		if err := collectCalls(root, lp, inline, set.Calls); err != nil {
			return nil, err
		}
	}
	sort.Slice(set.Targets, func(i, j int) bool {
		a, b := set.Targets[i], set.Targets[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.DeclLine < b.DeclLine
	})
	return set, nil
}

// Has reports whether the target carries the directive kind.
func (t *Target) Has(k Kind) bool {
	for _, have := range t.Kinds {
		if have == k {
			return true
		}
	}
	return false
}

// collectTargets scans one package's FuncDecl doc comments for
// directives.
func collectTargets(root string, lp *load.Package) ([]*Target, error) {
	var out []*Target
	for _, f := range lp.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			kinds := directiveKinds(fd.Doc)
			if len(kinds) == 0 {
				continue
			}
			obj, ok := lp.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			declPos := lp.Fset.Position(fd.Pos())
			endPos := lp.Fset.Position(fd.End())
			rel, err := filepath.Rel(root, declPos.Filename)
			if err != nil {
				return nil, err
			}
			out = append(out, &Target{
				PkgPath:  lp.PkgPath,
				PkgName:  lp.Types.Name(),
				Name:     localSpelling(fd),
				FullName: obj.FullName(),
				File:     filepath.ToSlash(rel),
				DeclLine: declPos.Line,
				EndLine:  endPos.Line,
				Kinds:    kinds,
			})
		}
	}
	return out, nil
}

// directiveKinds parses the scdc:inline/noalloc/nobounds lines of a doc
// comment (scdc:hot belongs to the hotpath analyzer and is skipped).
func directiveKinds(doc *ast.CommentGroup) []Kind {
	if doc == nil {
		return nil
	}
	var kinds []Kind
	for _, c := range doc.List {
		switch strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
		case "scdc:inline":
			kinds = append(kinds, KindInline)
		case "scdc:noalloc":
			kinds = append(kinds, KindNoAlloc)
		case "scdc:nobounds":
			kinds = append(kinds, KindNoBounds)
		}
	}
	return kinds
}

// localSpelling reconstructs the compiler's same-package spelling of a
// function: "Func", "Recv.Func" or "(*Recv).Func".
func localSpelling(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		if id, ok := st.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// collectCalls records every direct call of an inline target found in
// the package, including calls inside go/defer statements (flagged as
// never-inlinable).
func collectCalls(root string, lp *load.Package, inline map[string]*Target, calls map[string][]CallSite) error {
	deferred := make(map[*ast.CallExpr]bool)
	var walkErr error
	for _, f := range lp.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				deferred[st.Call] = true
			case *ast.DeferStmt:
				deferred[st.Call] = true
			case *ast.CallExpr:
				var id *ast.Ident
				switch fun := ast.Unparen(st.Fun).(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				fn, ok := lp.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				t, ok := inline[fn.FullName()]
				if !ok {
					return true
				}
				pos := lp.Fset.Position(st.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					walkErr = err
					return false
				}
				calls[t.FullName] = append(calls[t.FullName], CallSite{
					File:     filepath.ToSlash(rel),
					Line:     pos.Line,
					SamePkg:  lp.PkgPath == t.PkgPath,
					Deferred: deferred[st],
				})
			}
			return true
		})
		if walkErr != nil {
			return walkErr
		}
	}
	return nil
}

// diagLine matches one compiler diagnostic: file:line:col: message.
var diagLine = regexp.MustCompile(`^([^\s:][^:]*\.go):(\d+):(\d+): (.*)$`)

// CompilerDiags recompiles the gated packages (loaded beneath root) with
// the inline/escape/BCE diagnostics enabled and parses the output. The go
// build cache replays diagnostics for cached packages, so repeat runs
// stay cheap and complete.
func CompilerDiags(root string, pkgs []*load.Package) ([]Diag, error) {
	args := []string{"build", "-gcflags=-m=2 -d=ssa/check_bce"}
	for _, p := range pkgs {
		dir, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		args = append(args, "./"+filepath.ToSlash(dir))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	diags, perr := ParseDiags(string(out))
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	if perr != nil {
		return nil, perr
	}
	return diags, nil
}

// ParseDiags parses `go build -gcflags='-m=2 -d=ssa/check_bce'` output.
// Package headers ("# pkg"), autogenerated positions and escape-analysis
// flow explanations survive in the raw output and are skipped here.
func ParseDiags(out string) ([]Diag, error) {
	var diags []Diag
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if strings.HasPrefix(m[1], "<autogenerated>") {
			continue
		}
		if strings.HasPrefix(m[4], " ") || strings.HasPrefix(m[4], "\t") {
			// Indented escape-analysis flow explanation under a primary
			// diagnostic; the primary line already carries the verdict.
			continue
		}
		ln, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("gcgate: bad diagnostic line %q: %w", line, err)
		}
		diags = append(diags, Diag{
			File: filepath.ToSlash(filepath.Clean(m[1])),
			Line: ln,
			Msg:  m[4],
		})
	}
	return diags, nil
}

// diagIndex buckets diagnostics by file for range scans and by file:line
// for point lookups.
type diagIndex struct {
	byFile map[string][]Diag
}

func indexDiags(diags []Diag) *diagIndex {
	ix := &diagIndex{byFile: make(map[string][]Diag)}
	for _, d := range diags {
		ix.byFile[d.File] = append(ix.byFile[d.File], d)
	}
	return ix
}

// at returns the diagnostics pointing exactly at file:line.
func (ix *diagIndex) at(file string, line int) []Diag {
	var out []Diag
	for _, d := range ix.byFile[file] {
		if d.Line == line {
			out = append(out, d)
		}
	}
	return out
}

// in returns the diagnostics pointing inside [lo, hi] of file.
func (ix *diagIndex) in(file string, lo, hi int) []Diag {
	var out []Diag
	for _, d := range ix.byFile[file] {
		if d.Line >= lo && d.Line <= hi {
			out = append(out, d)
		}
	}
	return out
}

// Check evaluates every directive in the set against the compiler
// diagnostics and returns the violations sorted by position.
func Check(set *Set, diags []Diag) []Violation {
	ix := indexDiags(diags)
	var out []Violation
	for _, t := range set.Targets {
		label := t.PkgPath + "." + t.Name
		for _, k := range t.Kinds {
			switch k {
			case KindInline:
				out = append(out, checkInline(ix, set, t, label)...)
			case KindNoAlloc:
				// -m=2 prints some escape verdicts twice (once with a
				// trailing colon introducing the flow explanation); dedupe
				// on the normalized message.
				seen := make(map[string]bool)
				for _, d := range ix.in(t.File, t.DeclLine, t.EndLine) {
					if !isEscapeDiag(d.Msg) {
						continue
					}
					msg := strings.TrimSuffix(d.Msg, ":")
					key := fmt.Sprintf("%s:%d:%s", d.File, d.Line, msg)
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, Violation{
						File: d.File, Line: d.Line, Target: label, Kind: k,
						Msg: fmt.Sprintf("heap allocation in noalloc function: %s", msg),
					})
				}
			case KindNoBounds:
				for _, d := range ix.in(t.File, t.DeclLine, t.EndLine) {
					if d.Msg == "Found IsInBounds" || d.Msg == "Found IsSliceInBounds" {
						out = append(out, Violation{
							File: d.File, Line: d.Line, Target: label, Kind: k,
							Msg: fmt.Sprintf("bounds check survived in nobounds function (%s)", d.Msg),
						})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Msg < b.Msg
	})
	return out
}

// checkInline verifies the declaration is inlinable and every discovered
// call site actually inlined.
func checkInline(ix *diagIndex, set *Set, t *Target, label string) []Violation {
	var out []Violation
	canInline := false
	reason := "no 'can inline' diagnostic at the declaration"
	for _, d := range ix.at(t.File, t.DeclLine) {
		if d.Msg == "can inline "+t.Name || strings.HasPrefix(d.Msg, "can inline "+t.Name+" ") {
			canInline = true
		}
		if rest, ok := strings.CutPrefix(d.Msg, "cannot inline "+t.Name+":"); ok {
			reason = strings.TrimSpace(rest)
		}
	}
	if !canInline {
		out = append(out, Violation{
			File: t.File, Line: t.DeclLine, Target: label, Kind: KindInline,
			Msg: fmt.Sprintf("function is not inlinable: %s", reason),
		})
	}
	for _, cs := range set.Calls[t.FullName] {
		if cs.Deferred {
			out = append(out, Violation{
				File: cs.File, Line: cs.Line, Target: label, Kind: KindInline,
				Msg: "call site is a go/defer statement; the deferred wrapper call survives even when the body inlines",
			})
			continue
		}
		want := "inlining call to " + t.Name
		if !cs.SamePkg {
			want = "inlining call to " + t.PkgName + "." + t.Name
		}
		inlined := false
		for _, d := range ix.at(cs.File, cs.Line) {
			if d.Msg == want {
				inlined = true
				break
			}
		}
		if !inlined {
			out = append(out, Violation{
				File: cs.File, Line: cs.Line, Target: label, Kind: KindInline,
				Msg: fmt.Sprintf("call site did not inline (no %q diagnostic)", want),
			})
		}
	}
	return out
}

// isEscapeDiag reports whether a -m=2 message records a heap allocation
// inside the function (as opposed to a parameter-leak note or an
// explanation line).
func isEscapeDiag(msg string) bool {
	if strings.HasPrefix(msg, "moved to heap:") {
		return true
	}
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasSuffix(msg, "escapes to heap:")
}

// Manifest summarizes the directive universe as "pkgpath.Name" ->
// sorted directive names. The manifest test pins it, so removing or
// retagging a function is a loud, reviewed change.
func Manifest(set *Set) map[string][]string {
	out := make(map[string][]string, len(set.Targets))
	for _, t := range set.Targets {
		ks := make([]string, 0, len(t.Kinds))
		for _, k := range t.Kinds {
			ks = append(ks, string(k))
		}
		sort.Strings(ks)
		out[t.PkgPath+"."+t.Name] = ks
	}
	return out
}
