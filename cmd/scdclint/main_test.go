package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"scdc/internal/analysis/gcgate"
	"scdc/internal/analysis/load"
	"scdc/internal/analysis/suite"
)

// run is exercised directly (the cmd/scdc pattern): every exit path of
// the flag handling and step selection gets a smoke test, and the whole
// gate runs over the actual module, so `go test ./...` enforces it.

// root is the module root as seen from this package's directory.
const root = "../.."

// The module's packages and their -list output are loaded once and
// shared by the tests that only read them; those tests run in parallel
// with the whole-gate run.
var (
	pkgsOnce sync.Once
	pkgs     []*load.Package
	pkgsErr  error

	listOnce sync.Once
	listOut  string
)

func modulePackages(t *testing.T) []*load.Package {
	t.Helper()
	pkgsOnce.Do(func() { pkgs, pkgsErr = loadPackages(root) })
	if pkgsErr != nil {
		t.Fatal(pkgsErr)
	}
	return pkgs
}

func list(t *testing.T) string {
	t.Helper()
	pkgs := modulePackages(t)
	listOnce.Do(func() {
		var out, errOut strings.Builder
		if code := listSteps(root, pkgs, &out, &errOut); code != 0 {
			t.Fatalf("-list: exit %d, stderr %q", code, errOut.String())
		}
		listOut = out.String()
	})
	return listOut
}

func TestListAnalyzers(t *testing.T) {
	t.Parallel()
	out := list(t)
	for _, a := range suite.Analyzers {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out)
		}
	}
	if !strings.Contains(out, gateStep) {
		t.Errorf("-list output missing the %s step:\n%s", gateStep, out)
	}
	if len(suite.Analyzers) != 7 {
		t.Errorf("suite has %d analyzers, want 7", len(suite.Analyzers))
	}
}

func TestListManifest(t *testing.T) {
	t.Parallel()
	lines := make(map[string]bool)
	for _, l := range strings.Split(list(t), "\n") {
		lines[strings.Join(strings.Fields(l), " ")] = true
	}
	// One carrier of each directive kind, as the manifest prints it.
	for _, want := range []string{
		"scdc/internal/quantizer.RoundIndex inline",
		"scdc/internal/quantizer.Linear.QuantizeRun noalloc",
		"scdc/internal/entropy.countLanes noalloc,nobounds",
	} {
		if !lines[want] {
			t.Errorf("-list output missing the manifest line %q", want)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"nosuchanalyzer"}, &out, &errOut); code != 2 {
		t.Fatalf("run with unknown analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown step") {
		t.Errorf("stderr %q does not name the unknown step", errOut.String())
	}
	// The error lists the valid names so the fix is one copy-paste away.
	for _, name := range []string{"parallelpure", gateStep} {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("stderr %q does not list the known step %s", errOut.String(), name)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run with bad flag: exit %d, want 2", code)
	}
}

func TestLintBadRoot(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-root", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("run with empty root: exit %d, want 2 (load failure)", code)
	}
	if !strings.Contains(errOut.String(), "load") {
		t.Errorf("stderr %q does not report the load failure", errOut.String())
	}
}

// TestUnsupportedToolchainSkips holds the gate step to its skip contract:
// on a toolchain whose diagnostic grammar was never validated it says so
// and passes, before touching the packages.
func TestUnsupportedToolchainSkips(t *testing.T) {
	var out, errOut strings.Builder
	if code := gcGate(root, nil, "go9.99", &out, &errOut); code != 0 {
		t.Fatalf("unsupported toolchain: exit %d, want 0 (skip)", code)
	}
	if !strings.Contains(out.String(), "skipping") {
		t.Errorf("skip message missing: %q", out.String())
	}
}

// TestLintModuleClean runs the default gate — every analyzer and the
// compiler gate — over the real tree, which must be clean.
func TestLintModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	t.Parallel()
	var out, errOut strings.Builder
	if code := run([]string{"-root", root}, &out, &errOut); code != 0 {
		t.Fatalf("lint: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// TestGateHolds runs the gate step alone over the real tree: the
// packages must satisfy every directive on a supported toolchain.
func TestGateHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles and type-checks the suite packages")
	}
	t.Parallel()
	var out, errOut strings.Builder
	if code := gcGate(root, modulePackages(t), runtime.Version(), &out, &errOut); code != 0 {
		t.Fatalf("gcgate: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if gcgate.SupportedGoVersion(runtime.Version()) && !strings.Contains(out.String(), "directive function(s) hold") {
		t.Errorf("missing success summary: %q", out.String())
	}
}

// TestRealTreeManifest pins the directive carriers of the real tree: the
// exact set of functions under gate enforcement and the kinds each
// carries. Dropping a directive (or a refactor silently renaming a
// carrier out of the manifest) fails here even when the surviving
// directives still hold, so coverage can only shrink deliberately. The
// tree has 69 carriers.
func TestRealTreeManifest(t *testing.T) {
	t.Parallel()
	set, err := gcgate.Collect(root, modulePackages(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, kinds := range gcgate.Manifest(set) {
		got = append(got, fmt.Sprintf("%s %s", name, strings.Join(kinds, ",")))
	}
	sort.Strings(got)
	want := []string{
		"scdc/internal/core.Region.NextRow inline,noalloc",
		"scdc/internal/core.Region.RowBase inline,noalloc",
		"scdc/internal/core.Region.byStride noalloc",
		"scdc/internal/core.Region.carryRow noalloc",
		"scdc/internal/core.Region.rowBase inline,noalloc",
		"scdc/internal/core.copyRun inline,noalloc",
		"scdc/internal/core.inv2DSign2Carry noalloc",
		"scdc/internal/core.qp1D noalloc",
		"scdc/internal/core.qp2DAlways noalloc",
		"scdc/internal/core.qp2DSign2 noalloc",
		"scdc/internal/core.qp2DSign3 noalloc",
		"scdc/internal/core.qp2DSkipU noalloc",
		"scdc/internal/core.qp3DAlways noalloc",
		"scdc/internal/core.qp3DSign2 noalloc",
		"scdc/internal/core.qp3DSign3 noalloc",
		"scdc/internal/core.qp3DSkipU noalloc",
		"scdc/internal/entropy.countLanes noalloc,nobounds",
		"scdc/internal/hpez.(*sweep).addTap noalloc",
		"scdc/internal/hpez.(*sweep).fwdChunk noalloc",
		"scdc/internal/hpez.(*sweep).invChunk noalloc",
		"scdc/internal/hpez.(*sweep).row noalloc",
		"scdc/internal/hpez.(*sweep).segment noalloc",
		"scdc/internal/hpez.(*sweep).setTaps noalloc",
		"scdc/internal/hpez.(*sweep).sweepLevel noalloc",
		"scdc/internal/hpez.accumulate noalloc",
		"scdc/internal/huffman.(*decoder).decodeMulti noalloc,nobounds",
		"scdc/internal/huffman.(*decoder).decodeSingle noalloc,nobounds",
		"scdc/internal/huffman.(*decoder).second inline",
		"scdc/internal/huffman.encodeDense noalloc",
		"scdc/internal/huffman.flushTail inline",
		"scdc/internal/interp.Cubic4 inline",
		"scdc/internal/interp.ExtrapLeft2 inline",
		"scdc/internal/interp.LinearCubic noalloc",
		"scdc/internal/interp.Mid2 inline",
		"scdc/internal/interp.Quad3Left inline",
		"scdc/internal/interp.Quad3Right inline",
		"scdc/internal/lattice.(*Class).Coord inline",
		"scdc/internal/lossless.load32 inline",
		"scdc/internal/lossless.lzDecompressInto noalloc",
		"scdc/internal/lossless.lzHash inline",
		"scdc/internal/lossless.lzReadLen inline",
		"scdc/internal/mgard.(*projection).factor noalloc",
		"scdc/internal/mgard.(*projection).solve noalloc",
		"scdc/internal/mgard.(*sweep).row noalloc",
		"scdc/internal/mgard.(*sweep).run noalloc",
		"scdc/internal/mgard.(*sweep).sweepLevel noalloc",
		"scdc/internal/mgard.cornerMean inline",
		"scdc/internal/qoz.(*levelTuner).score noalloc",
		"scdc/internal/quantizer.Linear.QuantizeRun noalloc",
		"scdc/internal/quantizer.Linear.Recover inline",
		"scdc/internal/quantizer.RoundIndex inline",
		"scdc/internal/rice.bestK noalloc,nobounds",
		"scdc/internal/rice.decodeBlock nobounds",
		"scdc/internal/rice.emitGamma inline",
		"scdc/internal/rice.encodeBlock noalloc,nobounds",
		"scdc/internal/rice.gammaBits inline",
		"scdc/internal/sz3.(*pass).carry noalloc",
		"scdc/internal/sz3.(*passKern).fwdRun noalloc",
		"scdc/internal/sz3.(*passKern).sweep noalloc",
		"scdc/internal/sz3.invCopyLeft noalloc",
		"scdc/internal/sz3.invCubic4 noalloc",
		"scdc/internal/sz3.invExtrapLeft2 noalloc",
		"scdc/internal/sz3.invMid2 noalloc",
		"scdc/internal/sz3.invQuad3Left noalloc",
		"scdc/internal/sz3.invQuad3Right noalloc",
		"scdc/internal/sz3.lorenzo inline",
		"scdc/internal/sz3.lorenzoScan.row noalloc",
		"scdc/internal/sz3.makePassKern noalloc",
		"scdc/internal/sz3.predict noalloc",
	}
	if len(got) != len(want) {
		t.Errorf("manifest has %d carriers, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("manifest[%d]:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
