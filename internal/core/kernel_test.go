package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scdc/internal/entropy"
)

// The kernel differential suite pins the region sweeps
// (forwardRegion/InverseRegion) against the reference Compensate path
// (ForwardRegionRef/InverseRegionRef) for every Mode x Cond pair and
// several region geometries (contiguous scan, strided pass, 2D plane,
// degenerate axes, MaxLevel cutoff, axes out of stride order) —
// byte-identical outputs, identical Compensated totals, identical write
// footprint. Both directions run in place; the reference
// forward reads q and writes a second array.

type regionCase struct {
	name string
	arr  int // backing array length
	rg   Region
}

func kernelRegionCases() []regionCase {
	return []regionCase{
		{
			// Contiguous Lorenzo-style scan over a 5x6x7 block.
			name: "lorenzo-5x6x7",
			arr:  210,
			rg: Region{Base: 0, Ext: [4]int{1, 5, 6, 7}, Strd: [4]int{0, 42, 7, 1},
				Left: 3, Top: 2, Back: 1, Level: 1},
		},
		{
			// Strided plane (rows/cols with gaps), no Back axis.
			name: "plane-9x8",
			arr:  400,
			rg: Region{Base: 3, Ext: [4]int{1, 1, 9, 8}, Strd: [4]int{0, 0, 40, 4},
				Left: 3, Top: 2, Back: -1, Level: 2},
		},
		{
			// Pass-like 4-axis lattice with stride-2 steps on every axis,
			// Back on the run axis (the SZ3 schedule shape).
			name: "pass-4x5x6x7",
			arr:  13440,
			rg: Region{Base: 1849, Ext: [4]int{4, 5, 6, 7}, Strd: [4]int{3360, 336, 28, 2},
				Left: 1, Top: 2, Back: 3, Level: 1},
		},
		{
			// Same lattice, neighbor axes permuted (Left on the slowest
			// axis) — exercises outer-axis row gating.
			name: "pass-permuted",
			arr:  13440,
			rg: Region{Base: 1849, Ext: [4]int{4, 5, 6, 7}, Strd: [4]int{3360, 336, 28, 2},
				Left: 0, Top: 2, Back: 3, Level: 2},
		},
		{
			// Degenerate Top axis (extent 1): 2D/3D modes collapse to the
			// identity, 1D-Left still predicts along the run.
			name: "degenerate-top",
			arr:  64,
			rg: Region{Base: 0, Ext: [4]int{1, 1, 1, 16}, Strd: [4]int{0, 0, 0, 3},
				Left: 3, Top: 2, Back: -1, Level: 1},
		},
		{
			// Level above the default MaxLevel: the whole region is the
			// copy path.
			name: "above-maxlevel",
			arr:  210,
			rg: Region{Base: 0, Ext: [4]int{1, 5, 6, 7}, Strd: [4]int{0, 42, 7, 1},
				Left: 3, Top: 2, Back: 1, Level: 3},
		},
		{
			// Single row: boundary-only work.
			name: "single-row",
			arr:  9,
			rg: Region{Base: 0, Ext: [4]int{1, 1, 1, 9}, Strd: [4]int{0, 0, 0, 1},
				Left: -1, Top: -1, Back: 3, Level: 1},
		},
		{
			// A single point, every axis extent 1 at stride 0: the run
			// axis has step 0.
			name: "single-point-stride0",
			arr:  4,
			rg: Region{Base: 2, Ext: [4]int{1, 1, 1, 1}, Strd: [4]int{0, 0, 0, 0},
				Left: 3, Top: 2, Back: 1, Level: 1},
		},
		{
			// The run axis itself carries a neighbor (Top) at stride 2, so
			// every compensated row has a head point; Left on the slowest
			// axis leaves the two middle axes free.
			name: "run-axis-needed-strided",
			arr:  6700,
			rg: Region{Base: 5, Ext: [4]int{3, 8, 10, 12}, Strd: [4]int{2200, 270, 26, 2},
				Left: 0, Top: 3, Back: 2, Level: 1},
		},
		{
			// Back on the slowest axis with extent 2: half the rows have
			// no Back neighbor at all.
			name: "back-axis0-extent2",
			arr:  2340,
			rg: Region{Base: 0, Ext: [4]int{2, 9, 10, 13}, Strd: [4]int{1170, 130, 13, 1},
				Left: 3, Top: 2, Back: 0, Level: 2},
		},
		// The regions below have their smallest stride off axis 3, so the
		// sweep reorders them before it runs.
		{
			// An SZ3 level-1 pass along the slowest axis of an 11×20×24
			// field: the point axis (Back) has the largest stride and the
			// run goes along Left, field axis 2.
			name: "sz3-dir0-pass",
			arr:  5280,
			rg: Region{Base: 480, Ext: [4]int{20, 24, 1, 5}, Strd: [4]int{24, 1, 0, 960},
				Left: 1, Top: 0, Back: 3, Level: 1},
		},
		{
			// Smallest stride on axis 0 and the largest (Back) on axis 1,
			// Top in between.
			name: "run-axis0-back-axis1",
			arr:  5913,
			rg: Region{Base: 3, Ext: [4]int{4, 20, 5, 6}, Strd: [4]int{2, 300, 42, 7},
				Left: 0, Top: 2, Back: 1, Level: 1},
		},
		{
			// Two extent-1 axes with tied strides in the middle and the
			// smallest stride on axis 0; Back is one of the extent-1 axes.
			name: "extent1-ties-run-axis0",
			arr:  30,
			rg: Region{Base: 0, Ext: [4]int{5, 1, 1, 6}, Strd: [4]int{1, 9, 9, 5},
				Left: 0, Top: 3, Back: 1, Level: 2},
		},
		{
			// An SZ3 level-2 pass along the slowest axis of a 9×10×12
			// field: after the reorder the run goes along Left at flat
			// stride 2, so the default pair's inverse carries Left.
			name: "sz3-level2-left-run",
			arr:  1080,
			rg: Region{Base: 240, Ext: [4]int{5, 6, 1, 2}, Strd: [4]int{24, 2, 0, 480},
				Left: 1, Top: 0, Back: 3, Level: 2},
		},
		{
			// An SZ3 level-1 pass along the fastest axis of a 6×7×9 field:
			// Back is the run axis, so 1D-Back reads its neighbor in-run.
			name: "sz3-level1-back-run",
			arr:  378,
			rg: Region{Base: 1, Ext: [4]int{3, 4, 1, 4}, Strd: [4]int{126, 18, 0, 2},
				Left: 1, Top: 0, Back: 3, Level: 1},
		},
	}
}

// TestRegionByStride pins the axis order the QP sweeps visit a region in:
// extent-1 axes outermost, then descending stride, ties in their given
// order, with Left/Top/Back following their axes. Regions already in that
// order (lattice classes, Lorenzo blocks) come back unchanged.
func TestRegionByStride(t *testing.T) {
	cases := []struct {
		name    string
		in, out Region
	}{
		{"sz3-dir0-pass",
			Region{Base: 48, Ext: [4]int{6, 8, 1, 4}, Strd: [4]int{8, 1, 0, 96}, Left: 1, Top: 0, Back: 3, Level: 1},
			Region{Base: 48, Ext: [4]int{1, 4, 6, 8}, Strd: [4]int{0, 96, 8, 1}, Left: 3, Top: 2, Back: 1, Level: 1}},
		{"lorenzo-already-ordered",
			Region{Ext: [4]int{1, 5, 6, 7}, Strd: [4]int{0, 42, 7, 1}, Left: 3, Top: 2, Back: 1, Level: 3},
			Region{Ext: [4]int{1, 5, 6, 7}, Strd: [4]int{0, 42, 7, 1}, Left: 3, Top: 2, Back: 1, Level: 3}},
		{"extent1-ties",
			Region{Ext: [4]int{5, 1, 1, 6}, Strd: [4]int{1, 9, 9, 5}, Left: 0, Top: 3, Back: 1},
			Region{Ext: [4]int{1, 1, 6, 5}, Strd: [4]int{9, 9, 5, 1}, Left: 3, Top: 2, Back: 0}},
		{"stride-tie-keeps-order",
			Region{Ext: [4]int{2, 3, 1, 4}, Strd: [4]int{4, 4, 7, 1}, Left: 1, Top: 0, Back: -1},
			Region{Ext: [4]int{1, 2, 3, 4}, Strd: [4]int{7, 4, 4, 1}, Left: 2, Top: 1, Back: -1}},
		{"no-neighbors",
			Region{Ext: [4]int{3, 2, 1, 1}, Strd: [4]int{1, 3, 0, 0}, Left: -1, Top: -1, Back: -1},
			Region{Ext: [4]int{1, 1, 2, 3}, Strd: [4]int{0, 0, 3, 1}, Left: -1, Top: -1, Back: -1}},
	}
	for _, tc := range cases {
		if got := tc.in.byStride(); got != tc.out {
			t.Errorf("%s: byStride\n got %+v\nwant %+v", tc.name, got, tc.out)
		}
	}
}

// hostileSymbols are stored values no quantizer writes but a corrupt
// stream can hold: centered, they wrap or sit far outside the radius, and
// the kernels' int32 arithmetic and int64 sign products must still agree
// with Compensate.
func hostileSymbols(radius int32) [4]int32 {
	return [4]int32{math.MinInt32, math.MaxInt32, radius + 1<<30, radius - 1<<30}
}

// forwardRegion runs the compression-side transform in place over one
// region, as Sweep.ForwardQP does, recording its moves into a scratch
// record it then discards. It returns the number of points a kernel
// visited.
func forwardRegion(p *Predictor, q []int32, rg Region) int {
	mv := getMoves(p.Radius, len(q))
	defer putMoves(mv)
	return p.sweep(q, rg, mv)
}

// fillSymbols populates the backing array with symbols biased toward the
// interesting values: the unpredictable marker (0), the centered zero
// (radius), both signs around it and the hostile extremes.
func fillSymbols(rng *rand.Rand, a []int32, radius int32) {
	hostile := hostileSymbols(radius)
	for i := range a {
		switch k := rng.Intn(16); {
		case k == 0:
			a[i] = 0 // unpredictable marker
		case k == 1:
			a[i] = radius // centered zero
		case k < 6:
			a[i] = hostile[k-2]
		default:
			a[i] = radius + int32(rng.Intn(9)) - 4
		}
	}
}

func allModes() []Mode {
	return []Mode{ModeOff, Mode1DBack, Mode1DTop, Mode1DLeft, Mode2D, Mode3D}
}

func allConds() []Cond {
	return []Cond{CondAlways, CondSkipUnpredictable, CondSameSign2, CondSameSign3}
}

func TestKernelsMatchCompensate(t *testing.T) {
	const radius = int32(8)
	const sentinel = int32(-999)
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernelRegionCases() {
		for _, maxLevel := range []int{0, 2} {
			for _, mode := range allModes() {
				for _, cond := range allConds() {
					cfg := Config{Mode: mode, Cond: cond, MaxLevel: maxLevel}
					q := make([]int32, tc.arr)
					fillSymbols(rng, q, radius)

					refPred := &Predictor{Cfg: cfg, Radius: radius}
					qpRef := make([]int32, tc.arr)
					for i := range qpRef {
						qpRef[i] = sentinel
					}
					refPred.ForwardRegionRef(q, qpRef, tc.rg)

					invRef := make([]int32, tc.arr)
					copy(invRef, qpRef)
					// Non-region slots hold sentinels; restore originals so
					// the inverse reference sees a coherent array.
					for i := range invRef {
						if invRef[i] == sentinel {
							invRef[i] = q[i]
						}
					}
					refInvPred := &Predictor{Cfg: cfg, Radius: radius}
					refInvPred.InverseRegionRef(invRef, tc.rg)

					name := fmt.Sprintf("%s/%v/%v/ml%d", tc.name, mode, cond, maxLevel)
					// The in-place forward must leave every slot outside
					// the region alone: compare the whole array.
					wantQP := slices.Clone(qpRef)
					for i := range wantQP {
						if wantQP[i] == sentinel {
							wantQP[i] = q[i]
						}
					}
					pred := &Predictor{Cfg: cfg, Radius: radius}
					qp := slices.Clone(q)
					forwardRegion(pred, qp, tc.rg)
					for i := range qp {
						if qp[i] != wantQP[i] {
							t.Fatalf("%s: forward mismatch at %d: kernel %d ref %d", name, i, qp[i], wantQP[i])
						}
					}
					if pred.Compensated != refPred.Compensated {
						t.Fatalf("%s: forward Compensated kernel %d ref %d", name, pred.Compensated, refPred.Compensated)
					}

					inv := slices.Clone(wantQP)
					invPred := &Predictor{Cfg: cfg, Radius: radius}
					invPred.InverseRegion(inv, tc.rg)
					for i := range inv {
						if inv[i] != invRef[i] {
							t.Fatalf("%s: inverse mismatch at %d: kernel %d ref %d", name, i, inv[i], invRef[i])
						}
						if inv[i] != q[i] {
							t.Fatalf("%s: inverse did not recover q at %d: got %d want %d", name, i, inv[i], q[i])
						}
					}
					if invPred.Compensated != refInvPred.Compensated {
						t.Fatalf("%s: inverse Compensated kernel %d ref %d", name, invPred.Compensated, refInvPred.Compensated)
					}
				}
			}
		}
	}
}

// TestKernelTableComplete: every enabled configuration has exactly one
// kernel, which runs both directions, and names its in-run neighbor in
// slot 0; only the default one has a carrying inverse besides; ModeOff has
// neither kernels nor neighbors.
func TestKernelTableComplete(t *testing.T) {
	for _, mode := range allModes() {
		for _, cond := range allConds() {
			ops := kernelFor(mode, cond)
			if mode == ModeOff {
				if ops.k != nil || ops.carry != nil || ops.nb != [3]int{} {
					t.Errorf("%v/%v: ModeOff must yield zero ops, got %+v", mode, cond, ops)
				}
				continue
			}
			if ops.k == nil || ops.nb[0] == nbNone {
				t.Errorf("%v/%v: missing kernel or in-run neighbor: %+v", mode, cond, ops)
			}
			def := Default()
			if isDefault := mode == def.Mode && cond == def.Cond; (ops.carry != nil) != isDefault {
				t.Errorf("%v/%v: carrying inverse present=%v, want %v", mode, cond, ops.carry != nil, isDefault)
			}
		}
	}
}

// TestBindCarriesRunNeighbor pins which kernel a sweep binds for the
// default configuration: the inverse takes the carrying one exactly when
// Left lies on the run axis of the stride-ordered region (SZ3's passes put
// it there), the loading one otherwise — both are correct wherever the
// other is, and this is the choice the default decode speed rests on. The
// forward takes the loading one everywhere: it runs backwards along the
// run, away from the neighbor the carrying one keeps.
func TestBindCarriesRunNeighbor(t *testing.T) {
	cases := []struct {
		region string
		carry  bool
	}{
		{"sz3-level2-left-run", true},
		{"sz3-dir0-pass", true},
		{"sz3-level1-back-run", false},
		{"run-axis-needed-strided", false},
	}
	fn := func(k kernel) uintptr { return reflect.ValueOf(k).Pointer() }
	def := Default()
	ops := kernelFor(def.Mode, def.Cond)
	for _, tc := range cases {
		i := slices.IndexFunc(kernelRegionCases(), func(rc regionCase) bool { return rc.name == tc.region })
		inv := regionSweep{rg: kernelRegionCases()[i].rg.byStride()}
		inv.bind(ops)
		want := ops.k
		if tc.carry {
			want = ops.carry
		}
		if inv.k == nil || fn(inv.k) != fn(want) {
			t.Errorf("%s: bound the wrong inverse, want carrying=%v", tc.region, tc.carry)
		}
		fwd := regionSweep{rg: inv.rg, mv: &moves{}}
		fwd.bind(ops)
		if fwd.k == nil || fn(fwd.k) != fn(ops.k) {
			t.Errorf("%s: the forward must bind the loading kernel", tc.region)
		}
	}
}

// TestKernelNeedsMatchReads calls each table kernel directly — forward
// (in place over a copy of q, last to first, recording its moves),
// inverse in place and, where there is one, carrying inverse —
// with the offset slots the table leaves unused set to a value that
// indexes out of range: a kernel that read one would panic.
// The slot-0 neighbor lies on the run axis, where a carrying inverse is
// the one a sweep binds. Every inverse must recover the original from the
// reference's forward output.
func TestKernelNeedsMatchReads(t *testing.T) {
	const radius = int32(8)
	const poison = 1 << 20
	pos := [4]int{0, 2, 3, 1} // an interior run: every neighbor exists
	const cnt = 3
	rng := rand.New(rand.NewSource(11))
	for _, mode := range allModes()[1:] {
		for _, cond := range allConds() {
			ops := kernelFor(mode, cond)
			rg := Region{Ext: [4]int{1, 4, 4, 4}, Strd: [4]int{0, 16, 4, 1}, Left: 3, Top: 2, Back: 1, Level: 1}
			switch ops.nb[0] {
			case nbTop:
				rg.Left, rg.Top = 2, 3
			case nbBack:
				rg.Left, rg.Back = 1, 3
			}
			axis := [...]int{nbLeft: rg.Left, nbTop: rg.Top, nbBack: rg.Back}
			off := [3]int{poison, poison, poison}
			for k, nb := range ops.nb {
				if nb != nbNone {
					off[k] = rg.Strd[axis[nb]]
				}
			}
			u := int32(0)
			if ops.caseI {
				u = radius
			}
			q := make([]int32, 64)
			fillSymbols(rng, q, radius)
			ref := &Predictor{Cfg: Config{Mode: mode, Cond: cond}, Radius: radius}
			want := slices.Clone(q)
			wantComp := 0
			i0, _ := rg.neighborhood(pos)
			for k := 0; k < cnt; k++ {
				idx, nb := rg.neighborhood([4]int{pos[0], pos[1], pos[2], pos[3] + k})
				c := ref.Compensate(q, nb)
				if c != 0 {
					wantComp++
				}
				want[idx] = q[idx] - c
			}
			qp := slices.Clone(q)
			mv := getMoves(radius, len(q))
			if comp := ops.k(qp, i0, cnt, cnt-1, ^uint(0), off[0], off[1], off[2], radius, u, mv); comp != wantComp {
				t.Errorf("%v/%v forward: compensated %d, reference %d", mode, cond, comp, wantComp)
			}
			if !slices.Equal(qp, want) {
				t.Errorf("%v/%v forward: got %v, reference %v", mode, cond, qp, want)
			}
			if got, ref := mv.shift(entropy.Analyze(qp)), entropy.Analyze(q); !reflect.DeepEqual(got, ref) {
				t.Errorf("%v/%v forward: moves shift the distribution to %+v, the original's is %+v", mode, cond, got, ref)
			}
			putMoves(mv)
			for name, inv := range map[string]kernel{"inverse": ops.k, "carrying inverse": ops.carry} {
				if inv == nil {
					continue
				}
				x := slices.Clone(want)
				if comp := inv(x, i0, cnt, 0, 1, off[0], off[1], off[2], radius, u, nil); comp != wantComp {
					t.Errorf("%v/%v %s: compensated %d, reference %d", mode, cond, name, comp, wantComp)
				}
				if !slices.Equal(x, q) {
					t.Errorf("%v/%v %s: got %v, want the original %v", mode, cond, name, x, q)
				}
			}
		}
	}
}

// TestRegionCount cross-checks the strided symbol counter against a
// brute-force walk.
func TestRegionCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rg := Region{Base: 3, Ext: [4]int{2, 3, 4, 5}, Strd: [4]int{600, 200, 50, 10},
		Left: 1, Top: 2, Back: 3, Level: 1}
	a := make([]int32, 2000)
	for i := range a {
		a[i] = int32(rng.Intn(3))
	}
	want := 0
	rg.forEachPoint(func(idx int, _ Neighborhood) {
		if a[idx] == 1 {
			want++
		}
	})
	if got := RegionCount(a, rg, 1); got != want {
		t.Fatalf("RegionCount = %d, want %d", got, want)
	}
}
