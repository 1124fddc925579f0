package sz3

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// This file is the differential harness pinning the fused interpolation
// kernels (interp_kernel.go) to the golden reference walker
// (compressPassRef/decompressPassRef) — the interp analogue of
// TestKernelsMatchCompensate in internal/core.

// compressScheduleRef runs the full multilevel schedule through the
// reference pass codecs, mirroring CompressSchedule exactly (including
// the per-pass QP forward sweep, via the reference region walk).
func compressScheduleRef(data []float64, dims []int, levels int,
	specFor func(level int) LevelSpec,
	q, qp []int32, pred *core.Predictor, literals []float64) []float64 {

	strides := grid.Strides(dims)
	for level := levels; level >= 1; level-- {
		lsp := specFor(level)
		forEachPass(dims, strides, level, lsp.Order, func(pa *pass) {
			literals = compressPassRef(data, q, pa, lsp.Kind, lsp.Quant, literals)
			if qp != nil {
				pred.ForwardRegionRef(q, qp, pa.qpRegion())
			}
		})
	}
	return literals
}

// decompressScheduleRef mirrors DecompressSchedule through the reference
// pass codecs. ok is false when the literal stream is exhausted.
func decompressScheduleRef(data []float64, dims []int, levels int,
	specFor func(level int) LevelSpec,
	enc []int32, literals []float64, lit0 int, pred *core.Predictor) (int, bool) {

	strides := grid.Strides(dims)
	lit, ok := lit0, true
	for level := levels; level >= 1; level-- {
		lsp := specFor(level)
		forEachPass(dims, strides, level, lsp.Order, func(pa *pass) {
			if !ok {
				return
			}
			if pred != nil {
				pred.InverseRegionRef(enc, pa.qpRegion())
			}
			lit, ok = decompressPassRef(data, enc, pa, lsp.Kind, lsp.Quant, literals, lit)
		})
	}
	return lit, ok
}

// fieldKinds are the field contents every differential cell runs on:
// clean (smooth structure with sharp spikes), poisoned with NaN/Inf, and
// literal-heavy (range far beyond radius*eb, so most points of every pass
// — slow-axis passes included — take the unpredictable path and the
// literal stream's line order is exercised everywhere).
var fieldKinds = []string{"clean", "poison", "literals"}

// diffField fills a deterministic field of the given kind, so every
// quantizer branch is exercised on both sides of the differential.
func diffField(dims []int, kind string) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	rng := rand.New(rand.NewSource(int64(n)))
	data := make([]float64, n)
	for i := range data {
		x := float64(i)
		data[i] = math.Sin(x*0.7) + 0.25*math.Cos(x*0.13) + 0.001*x
		switch {
		case kind == "literals":
			data[i] += 1e3 * rng.NormFloat64()
		case i%17 == 0:
			data[i] += 50 // spike: forces the unpredictable path
		}
	}
	if kind == "poison" && n > 4 {
		data[n/3] = math.NaN()
		data[n/2] = math.Inf(1)
		data[2*n/3] = math.Inf(-1)
	}
	return data
}

// qpModes enumerates the QP configurations the differential runs under:
// disabled, the paper's best-fit 2D/Case III/levels<=2, and the
// worst-case 3D/Case I/all-levels (maximum neighbor coupling).
var qpModes = []struct {
	name string
	cfg  core.Config
}{
	{"qpoff", core.Config{}},
	{"qp2dIII", core.Default()},
	{"qp3dI", core.Config{Mode: core.Mode3D, Cond: core.CondAlways}},
}

// diffDims covers 1D–4D. Besides the small shapes, the slow-axis passes
// run across blocks of lines: blocks of one or two lines (extent-1/2
// orthogonal axes), a pass whose fastest orthogonal axis holds one point
// ({9, 7, 1}: the dir-0 pass runs along axis 1; {6, 1, 9}, {3, 1, 5, 4}),
// and one field with blocks of many lines ({20, 24, 36}).
var diffDims = [][]int{
	{1}, {2}, {3}, {4}, {5}, {17}, {33},
	{1, 1}, {2, 2}, {1, 7}, {5, 4}, {16, 9}, {9, 2}, {2, 9},
	{2, 3, 4}, {1, 6, 6}, {4, 1, 5}, {7, 9, 5}, {9, 2, 7}, {9, 7, 1}, {6, 1, 9}, {9, 7, 2},
	{2, 2, 2, 2}, {5, 1, 3, 7}, {3, 4, 5, 6}, {3, 1, 5, 4}, {4, 5, 2, 3},
	{20, 24, 36},
}

// encSweep and decSweep build the sweeps the drivers run on, as the
// engine does; the differential tests compare what they leave in Data,
// Sym, QP and Lits against the reference's bare arrays.
func encSweep(t testing.TB, src []float64, cfg core.Config, radius int32) *core.Sweep {
	b := core.Backend{QP: cfg, Radius: radius}
	sw, err := b.Sweep(src, cfg.Enabled(), core.StageInterp)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func decSweep(t testing.TB, stored []int32, lits []float64, cfg core.Config, radius int32) *core.Sweep {
	sw := encSweep(t, make([]float64, len(stored)), cfg, radius)
	copy(sw.Sym, stored)
	sw.Lits = lits
	return sw
}

// runKernelDiff drives one (dims, kind, qp, field) cell through both
// the kernelized schedule and the reference walker schedule and reports
// any divergence in symbols, QP output, literals or reconstructed
// fields. Comparison is on exact bits (math.Float64bits), so NaN
// payloads and signed zeros count too.
func runKernelDiff(t *testing.T, dims []int, kind interp.Kind, cfg core.Config, fieldKind string) {
	t.Helper()
	levels := Levels(dims)
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	spec := LevelSpec{Order: DefaultDirOrder(len(dims)), Kind: kind, Quant: quant}
	specFor := func(int) LevelSpec { return spec }
	orig := diffField(dims, fieldKind)
	n := len(orig)

	var predR *core.Predictor
	var qpR []int32
	if cfg.Enabled() {
		var err error
		if predR, err = core.NewPredictor(cfg, quant.Radius); err != nil {
			t.Fatal(err)
		}
		qpR = make([]int32, n)
	}

	// Origin point (outside the schedule): identical seed step on both
	// sides, exactly as compressInterp performs it.
	seedOrigin := func(data []float64, q, qp []int32) []float64 {
		var lits []float64
		sym, dec, ok := quant.Quantize(data[0], 0)
		q[0] = sym
		if !ok {
			lits = append(lits, data[0])
		}
		data[0] = dec
		if qp != nil {
			qp[0] = q[0]
		}
		return lits
	}

	swK := encSweep(t, orig, cfg, quant.Radius)
	dataK, qK, qpK := swK.Data, swK.Sym, swK.QP
	swK.Lits = seedOrigin(dataK, qK, qpK)
	CompressSchedule(swK, dims, levels, specFor)
	litsK := swK.Lits

	dataR := append([]float64(nil), orig...)
	qR := make([]int32, n)
	litsR := seedOrigin(dataR, qR, qpR)
	litsR = compressScheduleRef(dataR, dims, levels, specFor, qR, qpR, predR, litsR)

	for i := range qK {
		if qK[i] != qR[i] {
			t.Fatalf("symbol stream diverges at %d: kernel %d, walker %d", i, qK[i], qR[i])
		}
	}
	if cfg.Enabled() {
		for i := range qpK {
			if qpK[i] != qpR[i] {
				t.Fatalf("qp stream diverges at %d: kernel %d, walker %d", i, qpK[i], qpR[i])
			}
		}
	}
	if len(litsK) != len(litsR) {
		t.Fatalf("literal count diverges: kernel %d, walker %d", len(litsK), len(litsR))
	}
	for i := range litsK {
		if math.Float64bits(litsK[i]) != math.Float64bits(litsR[i]) {
			t.Fatalf("literal %d diverges: kernel %v, walker %v", i, litsK[i], litsR[i])
		}
	}
	for i := range dataK {
		if math.Float64bits(dataK[i]) != math.Float64bits(dataR[i]) {
			t.Fatalf("compressed-side field diverges at %d: kernel %v, walker %v", i, dataK[i], dataR[i])
		}
	}

	// Decompression: both sides start from the stored stream (QP output
	// when enabled) and must reconstruct bit-identical fields.
	stored := qK
	if cfg.Enabled() {
		stored = qpK
	}
	seedDecodeOrigin := func(data []float64, enc []int32) int {
		if enc[0] == quantizer.Unpredictable {
			data[0] = litsK[0]
			return 1
		}
		data[0] = quant.Recover(0, enc[0])
		return 0
	}

	swD := decSweep(t, stored, litsK, cfg, quant.Radius)
	encK, decK := swD.Sym, swD.Data
	swD.Lit = seedDecodeOrigin(decK, encK)
	if err := DecompressSchedule(swD, dims, levels, specFor); err != nil {
		t.Fatalf("kernel decompress: %v", err)
	}

	encR := append([]int32(nil), stored...)
	decR := make([]float64, n)
	litEnd, ok := decompressScheduleRef(decR, dims, levels, specFor, encR, litsK, seedDecodeOrigin(decR, encR), predR)
	if !ok || litEnd != len(litsK) {
		t.Fatalf("walker decompress: ok=%v consumed %d of %d literals", ok, litEnd, len(litsK))
	}

	for i := range encK {
		if encK[i] != encR[i] {
			t.Fatalf("recovered symbols diverge at %d: kernel %d, walker %d", i, encK[i], encR[i])
		}
	}
	for i := range decK {
		if math.Float64bits(decK[i]) != math.Float64bits(decR[i]) {
			t.Fatalf("reconstructed field diverges at %d: kernel %v, walker %v", i, decK[i], decR[i])
		}
	}
	for i := range decK {
		if math.Float64bits(decK[i]) != math.Float64bits(dataK[i]) {
			t.Fatalf("decode does not invert encode at %d: %v != %v", i, decK[i], dataK[i])
		}
	}
}

// TestInterpKernelsMatchWalker drives every (dims 1–4 × interp kind ×
// boundary case × QP mode × field kind) cell through both the fused
// kernels and the retained reference walker, asserting byte-identical
// symbol streams, literals and reconstructed fields.
func TestInterpKernelsMatchWalker(t *testing.T) {
	for _, dims := range diffDims {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			for _, qm := range qpModes {
				name := fmt.Sprintf("%v/%s/%s", dims, kind, qm.name)
				t.Run(name, func(t *testing.T) {
					for _, fk := range fieldKinds {
						runKernelDiff(t, dims, kind, qm.cfg, fk)
					}
				})
			}
		}
	}
}

// TestFusedQuantMatchesQuantizer pins the hand-expanded quantize step of
// the forward kernels (fwdQuant, whose body the hot loops replicate) to
// quantizer.Linear.Quantize bit for bit, including the branches Quantize
// takes for NaN, infinities, saturated indices and the rounding guard.
func TestFusedQuantMatchesQuantizer(t *testing.T) {
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	pm := quantParams{eb: quant.EB, eb2: 2 * quant.EB, rf: float64(quant.Radius), r: quant.Radius}
	cases := []struct{ d, pred float64 }{
		{0, 0}, {1.0000049, 1}, {1.0021, 1}, {-3.5, -3.4999},
		{float64(quant.Radius) * 2e-3, 0},      // exactly at the range gate
		{float64(quant.Radius)*2e-3 - 1e-3, 0}, // just inside
		{-float64(quant.Radius) * 2e-3, 0},     // negative gate
		{math.NaN(), 0}, {0, math.NaN()},       // NaN data / NaN prediction
		{math.Inf(1), 0}, {math.Inf(-1), 1e300}, // infinities
		{1e308, -1e308},       // overflow in the residual
		{5e-4, 0}, {-5e-4, 0}, // rounding-guard half-bin edges
		{1.5e-3, 1e-3}, {2.5e-3, 0},
	}
	for _, tc := range cases {
		data := []float64{tc.d}
		q := []int32{0}
		okK := fwdQuant(data, q, 0, tc.pred, pm)
		symR, decR, okR := quant.Quantize(tc.d, tc.pred)
		if okK != okR || q[0] != symR {
			t.Fatalf("d=%v pred=%v: fused (sym=%d ok=%v) != quantizer (sym=%d ok=%v)",
				tc.d, tc.pred, q[0], okK, symR, okR)
		}
		want := decR
		if !okR {
			want = tc.d // fused path leaves the original value in place
		}
		if math.Float64bits(data[0]) != math.Float64bits(want) {
			t.Fatalf("d=%v pred=%v: fused reconstruction %v != quantizer %v", tc.d, tc.pred, data[0], want)
		}
	}
}

// TestLineKernLayout pins the stencil segments makePassKern derives
// against the per-point classification of interp.StencilAt: for every
// (n, s, kind) the segments, expanded point by point, must reproduce
// exactly the stencil Line uses at each point and cover the line.
func TestLineKernLayout(t *testing.T) {
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	for n := 2; n <= 40; n++ {
		for level := 1; level <= 5; level++ {
			s := 1 << (level - 1)
			if s >= n {
				continue
			}
			for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
				pa := makePass([]int{n}, []int{1}, 0, s, level, [4]int{})
				pk := makePassKern(&pa, kind, quant)
				var got []interp.Stencil
				for i, sg := range pk.segs[:pk.nseg] {
					if sg.n < 1 || (i > 0 && sg.st == pk.segs[i-1].st) {
						t.Fatalf("n=%d s=%d %v: segment %d %+v is empty or unmerged", n, s, kind, i, sg)
					}
					for k := 0; k < sg.n; k++ {
						got = append(got, sg.st)
					}
				}
				if len(got) != pa.pointsPerLine {
					t.Fatalf("n=%d s=%d %v: segments cover %d points, pointsPerLine=%d", n, s, kind, len(got), pa.pointsPerLine)
				}
				for k, st := range got {
					if want := interp.StencilAt(n, s*(2*k+1), s, kind); st != want {
						t.Fatalf("n=%d s=%d %v k=%d: segment stencil %d, StencilAt %d", n, s, kind, k, st, want)
					}
				}
				if pk.blk != 1 {
					t.Fatalf("n=%d s=%d: a 1D pass runs along its line, got blocks of %d", n, s, pk.blk)
				}
			}
		}
	}
}

// TestPassRunAxis pins the walk rule on the level-1 passes of a 3D field:
// the pass along the fastest axis runs along its lines, every other pass
// across blocks of lines along the fastest orthogonal axis, and an
// orthogonal axis of extent 1 hands the runs to the next one out.
func TestPassRunAxis(t *testing.T) {
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	cases := []struct {
		dims []int
		blk  map[int][2]int // pass direction -> (lines per block, flat step between them)
	}{
		{[]int{6, 7, 9}, map[int][2]int{2: {1, 0}, 1: {9, 1}, 0: {9, 1}}},
		{[]int{6, 7, 1}, map[int][2]int{1: {1, 0}, 0: {7, 1}}},
		{[]int{6, 1, 9}, map[int][2]int{2: {1, 0}, 0: {9, 1}}},
		{[]int{5, 3, 2}, map[int][2]int{2: {1, 0}, 1: {2, 1}, 0: {2, 1}}},
	}
	for _, tc := range cases {
		seen := 0
		forEachPass(tc.dims, grid.Strides(tc.dims), 1, DefaultDirOrder(len(tc.dims)), func(pa *pass) {
			pk := makePassKern(pa, interp.Cubic, quant)
			want, ok := tc.blk[pa.dir]
			if !ok {
				t.Fatalf("dims=%v: unexpected pass along %d", tc.dims, pa.dir)
			}
			if pk.blk != want[0] || (pk.blk > 1 && pk.rstep != want[1]) {
				t.Errorf("dims=%v dir=%d: blocks of %d lines at step %d, want %d at %d",
					tc.dims, pa.dir, pk.blk, pk.rstep, want[0], want[1])
			}
			seen++
		})
		if seen != len(tc.blk) {
			t.Errorf("dims=%v: %d passes, want %d", tc.dims, seen, len(tc.blk))
		}
	}
}
