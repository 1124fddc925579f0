package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"scdc/internal/obs"
	"scdc/internal/verdict"
)

// TestSweepQPOffIsNoop: a sweep without QP state — bare, from a Backend
// with QP off, from a Reader whose stream kept none — leaves the symbols
// alone in both directions and opens no qp span, while the same calls on
// a QP-on sweep are the region kernels.
func TestSweepQPOffIsNoop(t *testing.T) {
	const radius = int32(8)
	rg := kernelRegionCases()[0]
	q := make([]int32, rg.arr)
	fillSymbols(rand.New(rand.NewSource(3)), q, radius)
	data := make([]float64, rg.arr)

	rec := obs.New()
	root := rec.Span("compress")
	b := Backend{Radius: radius, Obs: root}
	off, err := b.Sweep(data, false, StageInterp)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Release()
	copy(off.Sym, q)
	for name, sw := range map[string]*Sweep{
		"bare":    NewSweep(data, slices.Clone(q)),
		"backend": off,
		"reader":  (&Reader{Indices: slices.Clone(q), dims: []int{len(q)}, sp: root}).Sweep(StageInterp),
	} {
		sw.ForwardQP(rg.rg)
		sw.InverseQP(rg.rg)
		sw.Stamp(0, q[0])
		if !slices.Equal(sw.Sym, q) {
			t.Errorf("%s: QP-off sweep changed the symbols", name)
		}
	}
	root.End()
	if rep := rec.Report(); rep.Find("qp") != nil {
		t.Error("QP-off sweeps opened a qp span")
	}

	// QP on: the sweep's calls are the predictor's region kernels, timed
	// on the sweep's qp span.
	rec = obs.New()
	root = rec.Span("compress")
	b = Backend{Radius: radius, QP: Default(), Obs: root}
	sw, err := b.Sweep(data, true, StageInterp)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	copy(sw.Sym, q)
	sw.ForwardQP(rg.rg)
	want := make([]int32, rg.arr)
	(&Predictor{Cfg: Default(), Radius: radius}).ForwardRegion(q, want, rg.rg)
	rg.rg.forEachPoint(func(idx int, _ Neighborhood) {
		if sw.QP[idx] != want[idx] {
			t.Fatalf("ForwardQP: qp[%d] = %d, kernel wrote %d", idx, sw.QP[idx], want[idx])
		}
	})
	dec := &Sweep{Sym: slices.Clone(want), Pred: sw.Pred}
	dec.InverseQP(rg.rg)
	rg.rg.forEachPoint(func(idx int, _ Neighborhood) {
		if dec.Sym[idx] != q[idx] {
			t.Fatalf("InverseQP: symbol %d recovered as %d, want %d", idx, dec.Sym[idx], q[idx])
		}
	})
	root.End()
	if rec.Report().Find("qp") == nil {
		t.Error("QP-on sweep opened no qp span")
	}
}

// TestSweepLiteralAccounting: Literal hands the stream out in order and
// reports its end; running out and leaving literals over are each one
// error, and each is verdict.ErrCorrupt.
func TestSweepLiteralAccounting(t *testing.T) {
	sentinel := verdict.ErrCorrupt
	r := &Reader{Literals: []float64{1.5, -2, 3}, dims: []int{1}, workers: 1}
	sw := r.Sweep(StageInterp)
	if err := sw.Drained(); !errors.Is(err, sentinel) || err.Error() != "scdc: corrupt stream: core: 3 unused literals" {
		t.Errorf("untouched stream: Drained() = %v", err)
	}
	for i, want := range r.Literals {
		if v, ok := sw.Literal(); !ok || v != want {
			t.Fatalf("literal %d: got %v, %v; want %v", i, v, ok, want)
		}
	}
	if err := sw.Drained(); err != nil {
		t.Errorf("consumed stream: Drained() = %v", err)
	}
	if v, ok := sw.Literal(); ok || sw.Lit != 3 {
		t.Errorf("past the end: Literal() = %v, %v with cursor %d", v, ok, sw.Lit)
	}
	if err := sw.Exhausted(); !errors.Is(err, sentinel) || err.Error() != "scdc: corrupt stream: core: literal stream exhausted" {
		t.Errorf("Exhausted() = %v", err)
	}
	// A cursor advanced by counting (MGARD's per-level offsets, SZ3's
	// passes) past the stream is a shortfall, not a surplus.
	sw.Lit = 5
	if err := sw.Drained(); !errors.Is(err, sentinel) || err.Error() != sw.Exhausted().Error() {
		t.Errorf("cursor past the stream: Drained() = %v", err)
	}

	bad := NewSweep(make([]float64, 4), make([]int32, 4))
	if err := bad.ScatterCoarse([]int{4}, 1, 0, []float64{1}); !errors.Is(err, sentinel) {
		t.Errorf("short side block: %v, want the sentinel", err)
	}
}

// TestSweepAllocs: once built, a sweep allocates nothing per QP call in
// either direction or per literal, observed or not — the clock and the
// cursor are set up at construction, and the region sweep builds no
// closure. Unobserved, the clock is nil checks all the way: no allocation
// at the finish either, and the time is never read.
func TestSweepAllocs(t *testing.T) {
	const radius = int32(8)
	rg := kernelRegionCases()[2].rg
	data := make([]float64, kernelRegionCases()[2].arr)
	for _, sp := range []*obs.Span{nil, obs.New().Span("compress")} {
		b := Backend{Radius: radius, QP: Default(), Obs: sp}
		sw, err := b.Sweep(data, true, StageInterp)
		if err != nil {
			t.Fatal(err)
		}
		fillSymbols(rand.New(rand.NewSource(7)), sw.Sym, radius)
		sw.Lits = make([]float64, 64)
		if a := testing.AllocsPerRun(20, func() { sw.ForwardQP(rg) }); a != 0 {
			t.Errorf("observed=%v: %v allocations per ForwardQP call", sp != nil, a)
		}
		if a := testing.AllocsPerRun(20, func() {
			sw.InverseQP(rg)
			sw.Stamp(0, radius)
			for sw.Lit = 0; ; {
				if _, ok := sw.Literal(); !ok {
					break
				}
			}
		}); a != 0 {
			t.Errorf("observed=%v: %v allocations per InverseQP call and 64 literals", sp != nil, a)
		}
		if sp == nil {
			if a := testing.AllocsPerRun(20, func() { sw.finish(); sw.Finish() }); a != 0 {
				t.Errorf("unobserved: %v allocations per finish", a)
			}
			if sw.clk != nil {
				t.Error("unobserved sweep has a clock")
			}
		}
		sw.Release()
	}
	bare := NewSweep(data, make([]int32, len(data)))
	if a := testing.AllocsPerRun(20, func() { bare.ForwardQP(rg); bare.InverseQP(rg); bare.finish() }); a != 0 {
		t.Errorf("QP off: %v allocations per call", a)
	}
}
