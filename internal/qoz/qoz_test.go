package qoz

import (
	"errors"
	"math"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/lossless"
	"scdc/internal/metrics"
	"scdc/internal/sz3"
	"scdc/internal/verdict"
)

func synth(dims ...int) *grid.Field {
	f := grid.MustNew(dims...)
	strides := grid.Strides(dims)
	coord := make([]int, len(dims))
	for i := range f.Data {
		rem := i
		for d := range dims {
			coord[d] = rem / strides[d]
			rem %= strides[d]
		}
		v := 0.0
		for d, c := range coord {
			x := float64(c) / float64(dims[d])
			v += math.Sin(2*math.Pi*x*(float64(d)+1.5)) / (float64(d) + 1)
		}
		if coord[0] == dims[0]/2 {
			v += 3
		}
		f.Data[i] = v
	}
	return f
}

func roundTrip(t *testing.T, f *grid.Field, opts Options) *grid.Field {
	t.Helper()
	payload, err := Compress(f, opts)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	out, err := Decompress(payload, f.Dims())
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	maxErr, err := metrics.MaxAbsError(f.Data, out.Data)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > opts.ErrorBound*(1+1e-12) {
		t.Fatalf("error bound violated: %g > %g", maxErr, opts.ErrorBound)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	f := synth(40, 37, 33)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		roundTrip(t, f, DefaultOptions(eb))
	}
}

func TestRoundTripWithQP(t *testing.T) {
	f := synth(40, 37, 33)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		roundTrip(t, f, DefaultOptions(eb).WithQP())
	}
}

func TestQPBitIdentical(t *testing.T) {
	f := synth(48, 32, 40)
	for _, eb := range []float64{1e-3, 1e-4} {
		base := roundTrip(t, f, DefaultOptions(eb))
		qp := roundTrip(t, f, DefaultOptions(eb).WithQP())
		if !base.Equal(qp) {
			t.Fatalf("eb=%g: QP changed the decompressed data", eb)
		}
	}
}

func TestLowDims(t *testing.T) {
	for _, dims := range [][]int{{500}, {60, 70}, {5, 6, 7}, {1, 40, 40}, {3, 4, 5, 6}, {1, 1, 1}} {
		roundTrip(t, synth(dims...), DefaultOptions(1e-3).WithQP())
	}
}

func TestAnchorsExact(t *testing.T) {
	f := synth(66, 66, 66)
	payload, err := Compress(f, DefaultOptions(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(payload, f.Dims())
	if err != nil {
		t.Fatal(err)
	}
	a := 1 << sz3.AnchorLevels(f.Dims())
	for x := 0; x < 66; x += a {
		for y := 0; y < 66; y += a {
			for z := 0; z < 66; z += a {
				if out.At(x, y, z) != f.At(x, y, z) {
					t.Fatalf("anchor (%d,%d,%d) not lossless", x, y, z)
				}
			}
		}
	}
}

func TestTraceAndCorrupt(t *testing.T) {
	f := synth(24, 24, 24)
	tr := &sz3.Trace{}
	opts := DefaultOptions(1e-3).WithQP()
	opts.Trace = tr
	payload, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Q) != f.Len() || len(tr.QP) != f.Len() {
		t.Fatalf("trace not captured: %d %d", len(tr.Q), len(tr.QP))
	}
	if _, err := Decompress(payload[:10], f.Dims()); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := Decompress(nil, f.Dims()); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := Decompress(payload, []int{24, 24}); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestBadOptions(t *testing.T) {
	f := synth(8, 8, 8)
	if _, err := Compress(f, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: -1}); err == nil {
		t.Error("negative eb accepted")
	}
}

func TestCenterCrop(t *testing.T) {
	f := synth(100, 20, 100)
	c := sz3.CenterCrop(f, 32)
	d := c.Dims()
	if d[0] != 32 || d[1] != 20 || d[2] != 32 {
		t.Fatalf("crop dims %v", d)
	}
	if c.At(0, 0, 0) != f.At(34, 0, 34) {
		t.Fatal("crop offset wrong")
	}
}

// TestPlanCodecRoundTrip: the serialized compression plan decodes to the
// exact plan that was encoded, for the default plan and the tuned one.
func TestPlanCodecRoundTrip(t *testing.T) {
	f := synth(40, 36, 44)
	opts := DefaultOptions(1e-4)
	opts.QP = core.Default()
	for name, pl := range map[string]plan{"default": defaultPlan(f.Dims(), opts), "tuned": buildPlan(f, opts)} {
		r := planReader(t, encodePlan(pl))
		r.Radius = pl.radius
		got, err := decodePlan(r, f.NDims())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r.Bytes(1, "trailing byte"); err == nil {
			t.Fatalf("%s: trailing bytes", name)
		}
		if got.levels != pl.levels || got.radius != pl.radius {
			t.Fatalf("%s: header mismatch: %+v vs %+v", name, got, pl)
		}
		for l := 0; l < pl.levels; l++ {
			if got.kinds[l] != pl.kinds[l] || got.ebs[l] != pl.ebs[l] {
				t.Fatalf("%s level %d: kind/eb mismatch", name, l)
			}
			for d := range pl.orders[l] {
				if got.orders[l][d] != pl.orders[l][d] {
					t.Fatalf("%s level %d: order mismatch", name, l)
				}
			}
		}
	}
}

// TestPlanCodecRejectsGarbage: decodePlan must reject malformed headers.
func TestPlanCodecRejectsGarbage(t *testing.T) {
	if _, err := decodePlan(planReader(t, nil), 3); !errors.Is(err, verdict.ErrCorrupt) {
		t.Errorf("empty plan: %v, want ErrCorrupt", err)
	}
	if _, err := decodePlan(planReader(t, []byte{9, 9, 9, 9}), 3); !errors.Is(err, verdict.ErrCorrupt) {
		t.Errorf("garbage plan: %v, want ErrCorrupt", err)
	}
}

// planReader returns the shared back-end reader positioned on a bare plan.
func planReader(t *testing.T, plan []byte) *core.Reader {
	t.Helper()
	payload, err := lossless.Compress(lossless.Flate, plan)
	if err != nil {
		t.Fatal(err)
	}
	// The dims only bound the plaintext size here; an empty plan still
	// needs a positive extent.
	r, err := core.DecodeStream(payload, []int{len(plan) + 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
