package gcgate_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"scdc/internal/analysis/gcgate"
	"scdc/internal/analysis/load"
)

func TestSupportedGoVersion(t *testing.T) {
	for v, want := range map[string]bool{
		"go1.22":           true,
		"go1.23.4":         true,
		"go1.24.0":         true,
		"go1.21.5":         false,
		"go1.25rc1":        false,
		"go1.240":          false,
		"devel +abc123":    false,
		"gccgo (GCC) 13.2": false,
	} {
		if got := gcgate.SupportedGoVersion(v); got != want {
			t.Errorf("SupportedGoVersion(%q) = %v, want %v", v, got, want)
		}
	}
}

// TestParseDiags pins the parser against a captured -m=2/check_bce
// transcript: package headers, autogenerated positions and indented
// flow explanations are noise, everything else must survive verbatim.
func TestParseDiags(t *testing.T) {
	const out = `# scdc/internal/interp
interp/interp.go:30:6: can inline Mid2 with cost 8 as: func(float64, float64) float64 { return (a + b) * 0.5 }
interp/interp.go:52:14: inlining call to Mid2
<autogenerated>:1: inlining call to Kind.String
rice/rice.go:334:71: k escapes to heap:
rice/rice.go:334:71:   flow: {storage for ... argument} = &{storage for k}:
rice/rice.go:334:71: k escapes to heap
core/kernel.go:101:10: Found IsInBounds
not a diagnostic line
`
	diags, err := gcgate.ParseDiags(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []gcgate.Diag{
		{File: "interp/interp.go", Line: 30, Msg: "can inline Mid2 with cost 8 as: func(float64, float64) float64 { return (a + b) * 0.5 }"},
		{File: "interp/interp.go", Line: 52, Msg: "inlining call to Mid2"},
		{File: "rice/rice.go", Line: 334, Msg: "k escapes to heap:"},
		{File: "rice/rice.go", Line: 334, Msg: "k escapes to heap"},
		{File: "core/kernel.go", Line: 101, Msg: "Found IsInBounds"},
	}
	if !reflect.DeepEqual(diags, want) {
		t.Errorf("ParseDiags:\n got %#v\nwant %#v", diags, want)
	}
}

// fixture loads the self-contained testdata module's one package.
func fixture(t *testing.T) []*load.Package {
	t.Helper()
	pkg, err := load.NewLoader().LoadDir("testdata/mod", "gcfix")
	if err != nil {
		t.Fatal(err)
	}
	return []*load.Package{pkg}
}

// fixtureSet collects the directive universe of the fixture module.
func fixtureSet(t *testing.T) *gcgate.Set {
	t.Helper()
	set, err := gcgate.Collect("testdata/mod", fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestFixtureViolations is the gate's negative test: it compiles the
// fixture module for real and requires the exact violation set — an
// inline tag whose function stopped inlining (declaration and call
// site), a deferred call of an inline target, a noalloc function that
// allocates, and a nobounds function that kept a bounds check. If the
// gate ever goes blind to one of these, this test fails before make
// check can silently pass.
func TestFixtureViolations(t *testing.T) {
	pkgs := fixture(t)
	set, err := gcgate.Collect("testdata/mod", pkgs)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := gcgate.CompilerDiags("testdata/mod", pkgs)
	if err != nil {
		t.Fatal(err)
	}
	violations := gcgate.Check(set, diags)
	var got []string
	for _, v := range violations {
		got = append(got, fmt.Sprintf("%s %s line %d", v.Target, v.Kind, v.Line))
	}
	sort.Strings(got)
	want := []string{
		"gcfix.Escapes noalloc line 57",
		"gcfix.Escapes noalloc line 57",
		"gcfix.Escapes noalloc line 57",
		"gcfix.Gather nobounds line 79",
		"gcfix.Pinned inline line 34",
		"gcfix.Pinned inline line 42",
		"gcfix.Recursive inline line 21",
		// Line 25 is Recursive's self-call: a call site like any other.
		"gcfix.Recursive inline line 25",
		"gcfix.Recursive inline line 42",
		"gcfix.Small inline line 49",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations:\n got %q\nwant %q\nfull: %v", got, want, violations)
	}
	// The honoring half of the fixture must stay silent.
	for _, v := range violations {
		switch v.Target {
		case "gcfix.Small":
			if v.Line != 49 {
				t.Errorf("Small violated outside the defer site: %v", v)
			}
		case "gcfix.Sums", "gcfix.Scale":
			t.Errorf("clean fixture function flagged: %v", v)
		}
	}
}

func TestFixtureManifest(t *testing.T) {
	set := fixtureSet(t)
	want := map[string][]string{
		"gcfix.Small":     {"inline"},
		"gcfix.Recursive": {"inline"},
		"gcfix.Pinned":    {"inline"},
		"gcfix.Escapes":   {"noalloc"},
		"gcfix.Sums":      {"noalloc"},
		"gcfix.Gather":    {"nobounds"},
		"gcfix.Scale":     {"nobounds"},
	}
	if got := gcgate.Manifest(set); !reflect.DeepEqual(got, want) {
		t.Errorf("Manifest:\n got %v\nwant %v", got, want)
	}
}
