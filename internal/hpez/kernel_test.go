package hpez

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// This file is the differential harness pinning the HPEZ row kernels
// (kernel.go) to the retained per-point reference: lattice.WalkClasses
// visiting every point with predict below — the seed-era closure-per-
// sample interp.Line path — and the per-point QP reference sweeps.

// predict computes the multi-dimensional interpolation prediction for a
// point: the weighted average of 1D spline stencils along each non-frozen
// odd axis, with HPEZ's tuned per-level axis weights (a frozen axis is a
// zero weight). It is the reference the row kernels reproduce bit for
// bit.
func predict(data []float64, dims, strides []int, pl *plan, pt *lattice.Point) float64 {
	nd := len(dims)
	kind := interp.Cubic
	frozen := pl.frozen[pt.Level-1]
	weights := pl.weights[pt.Level-1]
	if pt.Level <= 2 {
		bi := pl.blockIndex(pt.Coord, nd)
		if !pl.blockIsCubic(bi) {
			kind = interp.Linear
		}
		// Block-wise tuned weights take over at the fine levels; the
		// global freeze mask no longer applies (a locally bad axis simply
		// gets a near-zero local weight).
		weights = pl.blockWeights[bi]
		frozen = 0
	}

	sum, wsum := 0.0, 0.0
	eval := func(d int, w float64) {
		base := pt.Idx - pt.Coord[d]*strides[d]
		strd := strides[d]
		p := interp.Line(func(pos int) float64 {
			return data[base+pos*strd]
		}, dims[d], pt.Coord[d], pt.S, kind)
		sum += w * p
		wsum += w
	}
	for d := 0; d < nd; d++ {
		if pt.Mask&(1<<uint(d)) == 0 || frozen&(1<<uint(d)) != 0 {
			continue
		}
		w := float64(weights[d])
		if w == 0 {
			continue
		}
		eval(d, w)
	}
	if wsum == 0 {
		// Every odd axis frozen or zero-weighted: fall back to an
		// unweighted average over all odd axes.
		for d := 0; d < nd; d++ {
			if pt.Mask&(1<<uint(d)) != 0 {
				eval(d, 1)
			}
		}
	}
	return sum / wsum
}

// blockIndex is the row-major block of a point, as the reference derives
// it per point; the kernels split it into a per-row and a per-run part.
func (pl *plan) blockIndex(coord [4]int, nd int) int {
	idx := 0
	for d := 0; d < nd; d++ {
		idx = idx*pl.blockGrid[d] + coord[d]/blockSize
	}
	return idx
}

// encSweep and decSweep build the sweeps the drivers run on, as the
// engine does; the differential tests compare what they leave in Data,
// Sym, QP, Lits and Pred against the reference's bare arrays.
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

// compressCoreRef is compressCore over the reference walker.
func compressCoreRef(data []float64, dims []int, pl plan, q, qp []int32,
	pred *core.Predictor) (anchors, literals []float64) {

	strides := grid.Strides(dims)
	anchors = (&core.Sweep{Data: data, Sym: q, QP: qp}).GatherCoarse(dims, pl.levels, pl.radius)
	for level := pl.levels; level >= 1; level-- {
		quant := quantizer.Linear{EB: pl.ebs[level-1], Radius: pl.radius}
		lattice.WalkClasses(dims, strides, level, func(pt *lattice.Point) {
			p := predict(data, dims, strides, &pl, pt)
			sym, dec, ok := quant.Quantize(data[pt.Idx], p)
			q[pt.Idx] = sym
			if !ok {
				literals = append(literals, data[pt.Idx])
			}
			data[pt.Idx] = dec
		})
		if qp != nil {
			for _, cl := range lattice.Classes(dims, strides, level) {
				pred.ForwardRegionRef(q, qp, cl.Region)
			}
		}
	}
	return anchors, literals
}

// decompressCoreRef is decompressCore over the reference walker. ok is
// false when the literal stream is exhausted.
func decompressCoreRef(data []float64, dims []int, pl plan, enc []int32,
	anchors, literals []float64, pred *core.Predictor) (lit int, ok bool) {

	strides := grid.Strides(dims)
	if err := core.NewSweep(data, enc).ScatterCoarse(dims, pl.levels, pl.radius, anchors); err != nil {
		return 0, false
	}
	ok = true
	for level := pl.levels; level >= 1; level-- {
		quant := quantizer.Linear{EB: pl.ebs[level-1], Radius: pl.radius}
		if pred != nil {
			for _, cl := range lattice.Classes(dims, strides, level) {
				pred.InverseRegionRef(enc, cl.Region)
			}
		}
		lattice.WalkClasses(dims, strides, level, func(pt *lattice.Point) {
			if !ok {
				return
			}
			sym := enc[pt.Idx]
			if sym == quantizer.Unpredictable {
				if lit >= len(literals) {
					ok = false
					return
				}
				data[pt.Idx] = literals[lit]
				lit++
				return
			}
			data[pt.Idx] = quant.Recover(predict(data, dims, strides, &pl, pt), sym)
		})
	}
	return lit, ok
}

// planVariants are the plan shapes the differential runs under. Each
// mutates an untuned (all-cubic, uniform-weight) plan.
var planVariants = []struct {
	name string
	mut  func(pl *plan, nd int, rng *rand.Rand)
}{
	{"cubic", func(*plan, int, *rand.Rand) {}},
	{"mixed", func(pl *plan, nd int, rng *rand.Rand) {
		// Linear and cubic blocks side by side, every block its own
		// weights, some axes locally zero-weighted.
		rng.Read(pl.blockCubic)
		for i := range pl.blockWeights {
			for d := 0; d < nd; d++ {
				pl.blockWeights[i][d] = uint8(rng.Intn(256))
				if rng.Intn(4) == 0 {
					pl.blockWeights[i][d] = 0
				}
			}
		}
		for l := range pl.weights {
			for d := 0; d < nd; d++ {
				pl.weights[l][d] = uint8(1 + rng.Intn(255))
			}
		}
	}},
	{"frozen", func(pl *plan, nd int, rng *rand.Rand) {
		// One frozen axis per level (rotating), a zero level weight on
		// another: at levels > 2 both drop out of the tap list, at
		// levels <= 2 the freeze mask must be ignored.
		for l := range pl.frozen {
			pl.frozen[l] = 1 << uint(l%nd)
			pl.weights[l][(l+1)%nd] = 0
			pl.weights[l][(l+2)%nd] = uint8(1 + rng.Intn(255))
		}
	}},
	{"fallback", func(pl *plan, nd int, rng *rand.Rand) {
		// Every other block has all-zero weights, and the coarse levels
		// freeze or zero every axis: the unweighted all-odd-axes average.
		for i := range pl.blockWeights {
			if i%2 == 0 {
				pl.blockWeights[i] = [4]uint8{}
			}
		}
		for l := range pl.frozen {
			pl.frozen[l] = uint8(rng.Intn(16))
			if l%2 == 0 {
				pl.weights[l] = [4]uint8{}
			}
		}
	}},
}

// fieldKinds are the data shapes: smooth, NaN/Inf-poisoned, and
// literal-heavy (range far beyond radius*eb, so most points take the
// unpredictable path that no golden stream or benchmark cell reaches).
var fieldKinds = []string{"clean", "poison", "literals"}

func diffField(n int, kind string, rng *rand.Rand) []float64 {
	data := make([]float64, n)
	for i := range data {
		x := float64(i)
		data[i] = math.Sin(x*0.7) + 0.25*math.Cos(x*0.13) + 0.001*x
		switch {
		case kind == "literals":
			data[i] += 1e3 * rng.NormFloat64()
		case i%17 == 0:
			data[i] += 50 // spike: an isolated unpredictable point
		}
	}
	if kind == "poison" && n > 4 {
		data[n/3] = math.NaN()
		data[n/2] = math.Inf(1)
		data[2*n/3] = math.Inf(-1)
	}
	return data
}

var qpModes = []struct {
	name string
	cfg  core.Config
}{
	{"qpoff", core.Config{}},
	{"qp2dIII", core.Default()},
	{"qp3dI", core.Config{Mode: core.Mode3D, Cond: core.CondAlways}},
}

var diffDims = [][]int{
	{1}, {2}, {5}, {33}, {70}, {1025},
	{1, 7}, {2, 2}, {16, 9}, {40, 3}, {70, 45},
	{1, 6, 6}, {2, 3, 4}, {7, 9, 5}, {3, 40, 70}, {33, 34, 35},
	{2, 2, 2, 2}, {5, 1, 3, 7}, {3, 4, 5, 6}, {3, 34, 2, 37},
}

func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// runKernelDiff drives one cell through both the row kernels and the
// reference walker and fails on any divergence in symbols, QP output,
// anchors, literals or fields, in either direction. Comparison is on
// exact bits, so NaN payloads and signed zeros count.
func runKernelDiff(t *testing.T, dims []int, mut func(*plan, int, *rand.Rand), cfg core.Config, fieldKind string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := grid.MustNew(dims...)
	copy(f.Data, diffField(f.Len(), fieldKind, rng))
	opts := Options{Backend: core.Backend{Radius: 64, QP: cfg}, ErrorBound: 1e-3}
	pl := defaultPlan(dims, opts)
	mut(&pl, len(dims), rng)
	for l := range pl.ebs {
		pl.ebs[l] = opts.ErrorBound / float64(l+1) // level-wise bounds differ
	}
	n := f.Len()

	newPred := func() (*core.Predictor, []int32) {
		if !cfg.Enabled() {
			return nil, nil
		}
		p, err := core.NewPredictor(cfg, pl.radius)
		if err != nil {
			t.Fatal(err)
		}
		return p, make([]int32, n)
	}

	swK := encSweep(t, f.Data, cfg, pl.radius)
	anchK := compressCore(swK, dims, pl)
	dataK, qK, qpK, predK, litsK := swK.Data, swK.Sym, swK.QP, swK.Pred, swK.Lits

	predR, qpR := newPred()
	dataR, qR := append([]float64(nil), f.Data...), make([]int32, n)
	anchR, litsR := compressCoreRef(dataR, dims, pl, qR, qpR, predR)

	for i := range qK {
		if qK[i] != qR[i] {
			t.Fatalf("symbol %d: kernel %d ref %d", i, qK[i], qR[i])
		}
		if qpK != nil && qpK[i] != qpR[i] {
			t.Fatalf("qp symbol %d: kernel %d ref %d", i, qpK[i], qpR[i])
		}
	}
	if i := bitsEqual(anchK, anchR); i >= 0 {
		t.Fatalf("anchors diverge at %d (%d vs %d)", i, len(anchK), len(anchR))
	}
	if i := bitsEqual(litsK, litsR); i >= 0 {
		t.Fatalf("literals diverge at %d (%d vs %d)", i, len(litsK), len(litsR))
	}
	if i := bitsEqual(dataK, dataR); i >= 0 {
		t.Fatalf("compressed field diverges at %d: kernel %v ref %v", i, dataK[i], dataR[i])
	}
	if predK != nil && predK.Compensated != predR.Compensated {
		t.Fatalf("Compensated: kernel %d ref %d", predK.Compensated, predR.Compensated)
	}
	if fieldKind == "literals" && n >= 64 && len(litsK) < n/4 {
		t.Fatalf("literal-heavy field produced only %d literals of %d points", len(litsK), n)
	}

	// The bare sweep of the level-bound trials is this sweep with QP off.
	if qpK == nil {
		bare := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, n))
		anchB := compressCore(bare, dims, pl)
		if !slices.Equal(bare.Sym, qK) || bitsEqual(bare.Lits, litsK) >= 0 || bitsEqual(anchB, anchK) >= 0 {
			t.Fatalf("bare trial sweep diverges from the back-end's sweep (%d vs %d literals)", len(bare.Lits), len(litsK))
		}
	}

	stored := qK
	if qpK != nil {
		stored = qpK
	}
	swD := decSweep(t, stored, litsK, cfg, pl.radius)
	if err := decompressCore(swD, dims, pl, anchK); err != nil {
		t.Fatalf("kernel decompress: %v", err)
	}
	encK, decK := swD.Sym, swD.Data
	predR, _ = newPred()
	encR, decR := append([]int32(nil), stored...), make([]float64, n)
	if lit, ok := decompressCoreRef(decR, dims, pl, encR, anchK, litsK, predR); !ok || lit != len(litsK) {
		t.Fatalf("ref decompress: ok=%v, consumed %d of %d literals", ok, lit, len(litsK))
	}
	if i := bitsEqual(decK, decR); i >= 0 {
		t.Fatalf("reconstruction diverges at %d: kernel %v ref %v", i, decK[i], decR[i])
	}
	if i := bitsEqual(decK, dataK); i >= 0 {
		t.Fatalf("decode does not invert encode at %d: %v != %v", i, decK[i], dataK[i])
	}
	for i := range encK {
		if encK[i] != qK[i] {
			t.Fatalf("recovered symbol %d: %d, compressor wrote %d", i, encK[i], qK[i])
		}
	}

	// A short literal stream must surface as ErrCorrupt, never a panic.
	if len(litsK) > 0 {
		err := decompressCore(decSweep(t, stored, litsK[:len(litsK)-1], cfg, pl.radius), dims, pl, anchK)
		if !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("truncated literals: got %v, want ErrCorrupt", err)
		}
	}
}

func TestLatticeKernelsMatchWalker(t *testing.T) {
	for _, dims := range diffDims {
		for _, pv := range planVariants {
			for _, qm := range qpModes {
				for _, fk := range fieldKinds {
					name := fmt.Sprintf("%v/%s/%s/%s", dims, pv.name, qm.name, fk)
					t.Run(name, func(t *testing.T) {
						runKernelDiff(t, dims, pv.mut, qm.cfg, fk, int64(len(name)))
					})
				}
			}
		}
	}
}

// FuzzLatticeKernelDifferential drives the row kernels and the reference
// walker with fuzzer-chosen geometry, plan shape, QP mode and field kind.
func FuzzLatticeKernelDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(9), uint8(5), uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(1), uint8(200), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint8(2), int64(2))
	f.Add(uint8(4), uint8(3), uint8(34), uint8(2), uint8(37), uint8(3), uint8(2), uint8(1), int64(3))
	f.Add(uint8(2), uint8(70), uint8(45), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, ndB, n0, n1, n2, n3, variantB, qpB, fieldB uint8, seed int64) {
		nd := int(ndB%4) + 1
		// Extent caps keep the field at a few thousand points while still
		// crossing a 32-wide block boundary on up to two axes.
		caps := [][]int{{2048}, {70, 45}, {40, 12, 10}, {36, 6, 5, 4}}[nd-1]
		dims := make([]int, nd)
		for d, b := range []uint8{n0, n1, n2, n3}[:nd] {
			dims[d] = int(b)%caps[d] + 1
		}
		pv := planVariants[int(variantB)%len(planVariants)]
		runKernelDiff(t, dims, pv.mut, qpModes[int(qpB)%len(qpModes)].cfg,
			fieldKinds[int(fieldB)%len(fieldKinds)], seed)
	})
}

// TestLevelSweepAllocs: a level sweep allocates nothing that scales with
// rows — the same count (zero: the class list is the caller's) on 32^3
// and 64^3, in both directions, at a block-tuned and a level-tuned level.
func TestLevelSweepAllocs(t *testing.T) {
	for _, level := range []int{1, 3} {
		var counts [2][2]float64
		for i, n := range []int{32, 64} {
			dims := []int{n, n, n}
			f := synth(dims...)
			pl := defaultPlan(dims, Options{Backend: core.DefaultBackend(), ErrorBound: 1e-3})
			classes := lattice.Classes(dims, grid.Strides(dims), level)
			q := make([]int32, f.Len())
			data := make([]float64, f.Len())
			cs := core.NewSweep(data, q)
			counts[i][0] = testing.AllocsPerRun(3, func() {
				copy(data, f.Data)
				sw := newSweep(cs, true, &pl, 3)
				sw.sweepLevel(classes, level)
				if len(cs.Lits) != 0 {
					t.Fatalf("smooth field produced %d literals", len(cs.Lits))
				}
			})
			counts[i][1] = testing.AllocsPerRun(3, func() {
				sw := newSweep(cs, false, &pl, 3)
				if !sw.sweepLevel(classes, level) {
					t.Fatal("inverse sweep ran out of literals")
				}
			})
		}
		if counts[0] != counts[1] || counts[0] != [2]float64{} {
			t.Fatalf("level %d: allocs per sweep (fwd, inv) %v on 32^3, %v on 64^3; want 0 on both",
				level, counts[0], counts[1])
		}
	}
}
