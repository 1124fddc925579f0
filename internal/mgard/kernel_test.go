package mgard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
	"scdc/internal/verdict"
)

// This file is the differential harness pinning the MGARD row kernels
// (kernel.go) and the factored projection (projection.go) to the retained
// references: lattice.WalkClasses visiting every point with cornerAvg
// below, the per-point QP reference sweeps, and the per-line projection
// solve (applyCorrectionRef).

// cornerAvg computes the multilinear interpolation of a class point from
// its coarse-lattice corner neighbors: for each odd axis the two sides at
// ±S are averaged (one-sided at the right boundary). Equal corner weights
// are exact for midpoints on a uniform grid. It is the reference the row
// kernels reproduce bit for bit.
func cornerAvg(data []float64, dims, strides []int, pt *lattice.Point) float64 {
	// Iteratively average along each odd axis: maintain a set of partial
	// offsets (at most 2^4).
	var offs [16]int
	offs[0] = 0
	cnt := 1
	for d := 0; d < len(dims); d++ {
		if pt.Mask&(1<<uint(d)) == 0 {
			continue
		}
		hasR := pt.Coord[d]+pt.S < dims[d]
		if hasR {
			for i := 0; i < cnt; i++ {
				offs[cnt+i] = offs[i] + pt.S*strides[d]
				offs[i] -= pt.S * strides[d]
			}
			cnt *= 2
		} else {
			for i := 0; i < cnt; i++ {
				offs[i] -= pt.S * strides[d]
			}
		}
	}
	sum := 0.0
	for i := 0; i < cnt; i++ {
		sum += data[pt.Idx+offs[i]]
	}
	return sum / float64(cnt)
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
func compressCoreRef(data []float64, dims []int, opts Options, levels int,
	q, qp []int32, pred *core.Predictor) (coarse, literals []float64) {

	strides := grid.Strides(dims)
	quant := quantizer.Linear{EB: levelBound(opts.ErrorBound, levels), Radius: opts.Radius}
	for level := 1; level <= levels; level++ {
		lattice.WalkClasses(dims, strides, level, func(pt *lattice.Point) {
			p := cornerAvg(data, dims, strides, pt)
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
		applyCorrectionRef(data, dims, strides, level, quant, q, +1)
	}
	if qp != nil { // the coarse lattice is its own QP transform
		core.NewSweep(data, qp).GatherCoarse(dims, levels, quant.CenterSym())
	}
	return core.NewSweep(data, q).GatherCoarse(dims, levels, quant.CenterSym()), literals
}

// decompressCoreRef is decompressCore over the reference walker. ok is
// false when a level runs past the end of the literal stream.
func decompressCoreRef(data []float64, dims []int, eb float64, levels int, radius int32,
	enc []int32, coarse, literals []float64, pred *core.Predictor) bool {

	strides := grid.Strides(dims)
	quant := quantizer.Linear{EB: levelBound(eb, levels), Radius: radius}
	if err := core.NewSweep(data, enc).ScatterCoarse(dims, levels, quant.CenterSym(), coarse); err != nil {
		return false
	}
	// Symbols are recovered, and literals counted, fine-to-coarse — the
	// order the compressor wrote them in.
	litOffsets := make([]int, levels)
	lit := 0
	for level := 1; level <= levels; level++ {
		litOffsets[level-1] = lit
		for _, cl := range lattice.Classes(dims, strides, level) {
			if pred != nil {
				pred.InverseRegionRef(enc, cl.Region)
			}
		}
		lattice.WalkClasses(dims, strides, level, func(pt *lattice.Point) {
			if enc[pt.Idx] == quantizer.Unpredictable {
				lit++
			}
		})
	}
	ok := lit == len(literals)
	for level := levels; level >= 1 && ok; level-- {
		applyCorrectionRef(data, dims, strides, level, quant, enc, -1)
		lit := litOffsets[level-1]
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
			data[pt.Idx] = quant.Recover(cornerAvg(data, dims, strides, pt), sym)
		})
	}
	return ok
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
// coarse values, literals or fields, in either direction. Comparison is
// on exact bits, so NaN payloads and signed zeros count.
func runKernelDiff(t *testing.T, dims []int, cfg core.Config, fieldKind string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1
	for _, d := range dims {
		n *= d
	}
	orig := diffField(n, fieldKind, rng)
	opts := Options{Backend: core.Backend{Radius: 64, QP: cfg}, ErrorBound: 1e-3}
	levels := sz3.AnchorLevels(dims)

	newPred := func() (*core.Predictor, []int32) {
		if !cfg.Enabled() {
			return nil, nil
		}
		p, err := core.NewPredictor(cfg, opts.Radius)
		if err != nil {
			t.Fatal(err)
		}
		return p, make([]int32, n)
	}

	quant := quantizer.Linear{EB: levelBound(opts.ErrorBound, levels), Radius: opts.Radius}
	swK := encSweep(t, orig, cfg, opts.Radius)
	coarseK := compressCore(swK, dims, quant, levels)
	dataK, stored, predK, litsK := swK.Data, swK.Sym, swK.Pred, swK.Lits

	predR, qpR := newPred()
	dataR, qR := append([]float64(nil), orig...), make([]int32, n)
	coarseR, litsR := compressCoreRef(dataR, dims, opts, levels, qR, qpR, predR)

	// With QP on, the sweep has transformed its symbols in place.
	storedR := qR
	if qpR != nil {
		storedR = qpR
	}
	for i := range stored {
		if stored[i] != storedR[i] {
			t.Fatalf("stored symbol %d: kernel %d ref %d", i, stored[i], storedR[i])
		}
	}
	if i := bitsEqual(coarseK, coarseR); i >= 0 {
		t.Fatalf("coarse values diverge at %d (%d vs %d)", i, len(coarseK), len(coarseR))
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

	swD := decSweep(t, stored, litsK, cfg, opts.Radius)
	if err := decompressCore(swD, dims, quant, levels, coarseK); err != nil {
		t.Fatalf("kernel decompress: %v", err)
	}
	encK, decK := swD.Sym, swD.Data
	predR, _ = newPred()
	encR, decR := append([]int32(nil), stored...), make([]float64, n)
	if !decompressCoreRef(decR, dims, opts.ErrorBound, levels, opts.Radius, encR, coarseK, litsK, predR) {
		t.Fatal("ref decompress ran out of literals")
	}
	if i := bitsEqual(decK, decR); i >= 0 {
		t.Fatalf("reconstruction diverges at %d: kernel %v ref %v", i, decK[i], decR[i])
	}
	for i := range encK {
		if encK[i] != qR[i] {
			t.Fatalf("recovered symbol %d: %d, compressor wrote %d", i, encK[i], qR[i])
		}
	}

	// A short literal stream must surface as ErrCorrupt, never a panic.
	if len(litsK) > 0 {
		err := decompressCore(decSweep(t, stored, litsK[:len(litsK)-1], cfg, opts.Radius), dims, quant, levels, coarseK)
		if !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("truncated literals: got %v, want ErrCorrupt", err)
		}
	}
}

func TestLatticeKernelsMatchWalker(t *testing.T) {
	for _, dims := range diffDims {
		for _, qm := range qpModes {
			for _, fk := range fieldKinds {
				name := fmt.Sprintf("%v/%s/%s", dims, qm.name, fk)
				t.Run(name, func(t *testing.T) {
					runKernelDiff(t, dims, qm.cfg, fk, int64(len(name)))
				})
			}
		}
	}
}

// TestCorruptLiteralCensus: the decoder places the coarse levels'
// literals from their marker counts alone and leaves level 1 what is left
// of the block, so a block whose length disagrees with the symbols fails
// with verdict.ErrCorrupt and core.Sweep's one message for the case,
// never a panic: level 1 short of literals (the block lost one), level 1
// with one to spare (the block gained one), and coarse counts that alone
// exceed the block.
func TestCorruptLiteralCensus(t *testing.T) {
	dims := []int{17, 19, 21}
	n := 17 * 19 * 21
	strides := grid.Strides(dims)
	levels := sz3.AnchorLevels(dims)
	const radius = 64
	quant := quantizer.Linear{EB: levelBound(1e-3, levels), Radius: radius}
	orig := diffField(n, "clean", rand.New(rand.NewSource(1))) // a spike every 17 points
	for _, qm := range qpModes {
		sw := encSweep(t, orig, qm.cfg, radius)
		coarse := compressCore(sw, dims, quant, levels)
		stored, lits := sw.Sym, sw.Lits

		dec := decSweep(t, stored, lits, qm.cfg, radius)
		if err := decompressCore(dec, dims, quant, levels, coarse); err != nil {
			t.Fatalf("%s: intact block: %v", qm.name, err)
		}
		upper := 0 // the markers of levels ≥ 2, counted on the recovered symbols
		for level := 2; level <= levels; level++ {
			for _, cl := range lattice.Classes(dims, strides, level) {
				upper += core.RegionCount(dec.Sym, cl.Region, quantizer.Unpredictable)
			}
		}
		if upper == 0 || upper == len(lits) {
			t.Fatalf("%s: %d of %d literals above level 1; the field should put some on both sides", qm.name, upper, len(lits))
		}
		for _, tc := range []struct {
			what string
			lits []float64
			want string
		}{
			{"level 1 short", lits[1:], "literal stream exhausted"},
			{"level 1 long", append([]float64{0}, lits...), "1 unused literals"},
			{"coarse counts exceed the block", lits[len(lits)-upper+1:], "literal stream exhausted"},
		} {
			err := decompressCore(decSweep(t, stored, tc.lits, qm.cfg, radius), dims, quant, levels, coarse)
			if !errors.Is(err, verdict.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: got %v, want ErrCorrupt: … %s", qm.name, tc.what, err, tc.want)
			}
		}
	}
}

// FuzzLatticeKernelDifferential drives the row kernels and the reference
// walker with fuzzer-chosen geometry, QP mode and field kind.
func FuzzLatticeKernelDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(9), uint8(5), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(1), uint8(200), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), int64(2))
	f.Add(uint8(4), uint8(3), uint8(34), uint8(2), uint8(37), uint8(2), uint8(1), int64(3))
	f.Add(uint8(2), uint8(70), uint8(45), uint8(0), uint8(0), uint8(1), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, ndB, n0, n1, n2, n3, qpB, fieldB uint8, seed int64) {
		nd := int(ndB%4) + 1
		caps := [][]int{{2048}, {70, 45}, {40, 12, 10}, {36, 6, 5, 4}}[nd-1]
		dims := make([]int, nd)
		for d, b := range []uint8{n0, n1, n2, n3}[:nd] {
			dims[d] = int(b)%caps[d] + 1
		}
		runKernelDiff(t, dims, qpModes[int(qpB)%len(qpModes)].cfg,
			fieldKinds[int(fieldB)%len(fieldKinds)], seed)
	})
}

// TestLevelSweepAllocs: a level sweep allocates nothing that scales with
// rows — the same count (zero: the class list is the caller's) on 32^3
// and 64^3, in both directions — and the level-1 projection correction
// allocates nothing while its lines fit the on-stack scratch, one buffer
// per level beyond it, never per line or per batch.
func TestLevelSweepAllocs(t *testing.T) {
	var counts [2][3]float64
	for i, n := range []int{32, 64} {
		dims := []int{n, n, n}
		strides := grid.Strides(dims)
		f := synth(dims...)
		quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
		classes := lattice.Classes(dims, strides, 1)
		q := make([]int32, f.Len())
		data := make([]float64, f.Len())
		cs := core.NewSweep(data, q)
		counts[i][0] = testing.AllocsPerRun(3, func() {
			copy(data, f.Data)
			sw := sweep{cs: cs, data: data, sym: q, fwd: true, quant: quant}
			sw.sweepLevel(classes)
			if len(cs.Lits) != 0 {
				t.Fatalf("smooth field produced %d literals", len(cs.Lits))
			}
		})
		counts[i][1] = testing.AllocsPerRun(3, func() {
			sw := sweep{cs: cs, data: data, sym: q, quant: quant}
			if !sw.sweepLevel(classes) {
				t.Fatal("inverse sweep ran out of literals")
			}
		})
		counts[i][2] = testing.AllocsPerRun(3, func() {
			applyCorrection(data, dims, strides, 1, quant, q, +1)
		})
	}
	if counts[0] != counts[1] || counts[0] != [3]float64{} {
		t.Fatalf("allocs per call (fwd, inv, correction) %v on 32^3, %v on 64^3; want none", counts[0], counts[1])
	}
	// Level-1 lines along an axis of 2·stackNodes−1 points have stackNodes
	// nodes and fit the stack scratch; one more point outgrows it.
	quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
	for _, c := range []struct{ n, allocs int }{{2*stackNodes - 1, 0}, {2*stackNodes + 1, 1}} {
		dims := []int{5, c.n}
		strides := grid.Strides(dims)
		q := make([]int32, 5*c.n)
		data := make([]float64, len(q))
		for i := range q {
			q[i] = quant.CenterSym() + int32(i%7-3)
		}
		if a := testing.AllocsPerRun(3, func() {
			applyCorrection(data, dims, strides, 1, quant, q, +1)
		}); a != float64(c.allocs) {
			t.Errorf("correction on 5×%d: %v allocs per call, want %d", c.n, a, c.allocs)
		}
	}
}
