package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

const radius = 1 << 15

func mustPredictor(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := NewPredictor(cfg, radius)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaultIsBestFit(t *testing.T) {
	cfg := Default()
	if cfg.Mode != Mode2D || cfg.Cond != CondSameSign2 || cfg.MaxLevel != 2 {
		t.Fatalf("default config = %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("default config disabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Mode: 99}).Validate(); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("bad mode: %v, want ErrBadOptions", err)
	}
	if err := (Config{Cond: 99}).Validate(); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("bad cond: %v, want ErrBadOptions", err)
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
	if _, err := NewPredictor(Config{Mode: 99}, radius); err == nil {
		t.Error("NewPredictor accepted bad config")
	}
}

func TestStrings(t *testing.T) {
	for m := ModeOff; m <= Mode3D+1; m++ {
		if m.String() == "" {
			t.Errorf("mode %d has empty string", m)
		}
	}
	for c := CondAlways; c <= CondSameSign3+1; c++ {
		if c.String() == "" {
			t.Errorf("cond %d has empty string", c)
		}
	}
}

// clusterPlane builds a stored-symbol plane with a correlated cluster, the
// pattern the paper's Figure 5 visualizes.
func clusterPlane(w, h int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]int32, w*h)
	for i := range q {
		q[i] = radius // zero residual
	}
	// A smooth blob of positive indices (a gentle gradient), the shape of
	// the paper's clustering regions.
	for r := h / 4; r < 3*h/4; r++ {
		for c := w / 4; c < 3*w/4; c++ {
			q[r*w+c] = radius + 3 + int32(r/8+c/8)
		}
	}
	// Sprinkle unpredictable markers.
	for k := 0; k < w*h/50; k++ {
		q[rng.Intn(w*h)] = 0
	}
	return q
}

// planeRegion is the 2D sub-lattice QP operates on inside one
// interpolation pass (paper Figures 3 and 5) as a kernel region: rows on
// axis 2 (top neighbor), columns on axis 3 (left neighbor), no back axis.
func planeRegion(rows, cols, rowStride, colStride, level int) Region {
	return Region{
		Ext:  [4]int{1, 1, rows, cols},
		Strd: [4]int{0, 0, rowStride, colStride},
		Left: 3, Top: 2, Back: -1,
		Level: level,
	}
}

func TestTransformInvertRoundTrip(t *testing.T) {
	w, h := 37, 29
	q := clusterPlane(w, h, 1)
	rg := planeRegion(h, w, w, 1, 1)
	for mode := Mode1DBack; mode <= Mode3D; mode++ {
		for cond := CondAlways; cond <= CondSameSign3; cond++ {
			p := mustPredictor(t, Config{Mode: mode, Cond: cond, MaxLevel: 2})
			dst := make([]int32, len(q))
			p.ForwardRegion(q, dst, rg)
			p2 := mustPredictor(t, Config{Mode: mode, Cond: cond, MaxLevel: 2})
			rec := append([]int32(nil), dst...)
			p2.InverseRegion(rec, rg)
			for i := range q {
				if rec[i] != q[i] {
					t.Fatalf("mode=%v cond=%v: mismatch at %d: %d != %d", mode, cond, i, rec[i], q[i])
				}
			}
		}
	}
}

func TestTransformLowersEntropyOnClusters(t *testing.T) {
	w, h := 64, 64
	q := clusterPlane(w, h, 2)
	p := mustPredictor(t, Default())
	dst := make([]int32, len(q))
	p.ForwardRegion(q, dst, planeRegion(h, w, w, 1, 1))
	h0 := entropy.Shannon(q)
	h1 := entropy.Shannon(dst)
	if h1 >= h0 {
		t.Fatalf("QP did not lower entropy: %.3f -> %.3f", h0, h1)
	}
	if p.Compensated == 0 {
		t.Fatal("no compensations recorded")
	}
}

func TestMaxLevelGate(t *testing.T) {
	p := mustPredictor(t, Config{Mode: Mode2D, Cond: CondAlways, MaxLevel: 2})
	q := []int32{radius + 5, radius + 5, radius + 5, radius + 5}
	nb := Neighborhood{Level: 3, Left: 0, Top: 1, TopLeft: 2}
	if c := p.Compensate(q, nb); c != 0 {
		t.Fatalf("level 3 compensated: %d", c)
	}
	nb.Level = 2
	if c := p.Compensate(q, nb); c != 5 {
		t.Fatalf("level 2 compensation = %d, want 5", c)
	}
	// MaxLevel <= 0 means unrestricted.
	p0 := mustPredictor(t, Config{Mode: Mode2D, Cond: CondAlways, MaxLevel: 0})
	nb.Level = 9
	if c := p0.Compensate(q, nb); c != 5 {
		t.Fatalf("unrestricted compensation = %d", c)
	}
}

func TestConditionCases(t *testing.T) {
	unpred := int32(0)
	pos, neg, zero := int32(radius+4), int32(radius-4), int32(radius)
	nb := Neighborhood{Level: 1, Left: 0, Top: 1, TopLeft: 2}

	check := func(cond Cond, a, b, ab int32, want int32) {
		t.Helper()
		p := mustPredictor(t, Config{Mode: Mode2D, Cond: cond, MaxLevel: 2})
		q := []int32{a, b, ab}
		if got := p.Compensate(q, nb); got != want {
			t.Fatalf("cond=%v q=%v: got %d want %d", cond, q, got, want)
		}
	}

	// Case I: predicts even across unpredictable markers; the marker's
	// centered value (-radius) poisons the compensation.
	check(CondAlways, pos, pos, pos, 4)
	check(CondAlways, unpred, pos, pos, -radius+4-4)

	// Case II: skips whenever a neighbor is unpredictable.
	check(CondSkipUnpredictable, unpred, pos, pos, 0)
	check(CondSkipUnpredictable, pos, pos, pos, 4)
	check(CondSkipUnpredictable, pos, neg, zero, 0) // 4 + -4 - 0

	// Case III: left/top must share a nonzero sign.
	check(CondSameSign2, pos, pos, neg, 4+4+4)
	check(CondSameSign2, neg, neg, pos, -4-4-4)
	check(CondSameSign2, pos, neg, pos, 0)
	check(CondSameSign2, zero, pos, pos, 0)
	check(CondSameSign2, unpred, pos, pos, 0)

	// Case IV: all three must share a nonzero sign.
	check(CondSameSign3, pos, pos, neg, 0)
	check(CondSameSign3, pos, pos, pos, 4)
	check(CondSameSign3, neg, neg, neg, -4)
}

func TestMissingNeighbors(t *testing.T) {
	p := mustPredictor(t, Config{Mode: Mode2D, Cond: CondAlways, MaxLevel: 2})
	q := []int32{radius + 9}
	if c := p.Compensate(q, Neighborhood{Level: 1, Left: 0, Top: -1, TopLeft: -1}); c != 0 {
		t.Fatalf("missing top: c=%d", c)
	}
	p1 := mustPredictor(t, Config{Mode: Mode1DLeft, Cond: CondAlways, MaxLevel: 2})
	if c := p1.Compensate(q, Neighborhood{Level: 1, Left: 0, Top: -1, TopLeft: -1}); c != 9 {
		t.Fatalf("1D-left: c=%d", c)
	}
	if c := p1.Compensate(q, Neighborhood{Level: 1, Left: -1}); c != 0 {
		t.Fatalf("1D-left missing: c=%d", c)
	}
}

func Test3DMode(t *testing.T) {
	p := mustPredictor(t, Config{Mode: Mode3D, Cond: CondAlways, MaxLevel: 2})
	// centered values: a=1,b=2,d=3,ab=4,ad=5,bd=6,abd=7 -> 1+2+3-4-5-6+7 = -2
	q := []int32{radius + 1, radius + 2, radius + 3, radius + 4, radius + 5, radius + 6, radius + 7}
	nb := Neighborhood{Level: 1, Left: 0, Top: 1, Back: 2, TopLeft: 3, BackLeft: 4, BackTop: 5, BackTopLeft: 6}
	if c := p.Compensate(q, nb); c != -2 {
		t.Fatalf("3D compensation = %d", c)
	}
	nb.BackTopLeft = -1
	if c := p.Compensate(q, nb); c != 0 {
		t.Fatalf("3D with missing corner = %d", c)
	}
}

func TestModeOff(t *testing.T) {
	p := mustPredictor(t, Config{})
	q := []int32{radius + 5, radius + 5, radius + 5}
	if c := p.Compensate(q, Neighborhood{Level: 1, Left: 0, Top: 1, TopLeft: 2}); c != 0 {
		t.Fatalf("off mode compensated: %d", c)
	}
}

// TestQuickReversibility property: for arbitrary symbol planes and any
// configuration, InverseRegion(ForwardRegion(q)) == q. This is the paper's
// correctness requirement f^{-1}(f(Q)) = Q (Section V-A).
func TestQuickReversibility(t *testing.T) {
	f := func(raw []int32, modeRaw, condRaw uint8, wRaw uint8) bool {
		w := int(wRaw%16) + 1
		h := len(raw) / w
		if h == 0 {
			return true
		}
		q := raw[:w*h]
		cfg := Config{
			Mode:     Mode(modeRaw % 6),
			Cond:     Cond(condRaw % 4),
			MaxLevel: 2,
		}
		p, err := NewPredictor(cfg, radius)
		if err != nil {
			return false
		}
		rg := planeRegion(h, w, w, 1, 1)
		dst := make([]int32, len(q))
		p.ForwardRegion(q, dst, rg)
		p2, _ := NewPredictor(cfg, radius)
		rec := append([]int32(nil), dst...)
		p2.InverseRegion(rec, rg)
		for i := range q {
			if rec[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
