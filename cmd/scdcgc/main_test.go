package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"scdc/internal/analysis/gcgate"
)

func TestUnsupportedToolchainSkips(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-goversion", "go9.99"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("unsupported toolchain: exit %d, want 0 (skip)", code)
	}
	if !strings.Contains(out.String(), "skipping") {
		t.Errorf("skip message missing: %q", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestBadRoot(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-root", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("empty root: exit %d, want 2", code)
	}
}

func TestListManifest(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-root", "../..", "-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, errOut.String())
	}
	for _, want := range []string{"inline", "noalloc", "nobounds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing a %q directive:\n%s", want, out.String())
		}
	}
}

// TestRealTreeManifest pins the directive carriers of the real tree: the
// exact set of functions under gate enforcement and the kinds each
// carries. Dropping a directive (or a refactor silently renaming a
// carrier out of the manifest) fails here even when the surviving
// directives still hold, so coverage can only shrink deliberately. The
// tree has 69 carriers.
func TestRealTreeManifest(t *testing.T) {
	set, err := gcgate.Collect("../..", gatePkgs)
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

// TestGateHolds runs the real gate over the real tree: the hot packages
// must satisfy every directive on a supported toolchain.
func TestGateHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles and type-checks the hot packages")
	}
	var out, errOut strings.Builder
	code := run([]string{"-root", "../.."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("scdcgc: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "directive function(s) hold") {
		t.Errorf("missing success summary: %q", out.String())
	}
}
