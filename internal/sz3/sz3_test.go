package sz3

import (
	"errors"
	"math"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/lossless"
	"scdc/internal/metrics"
	"scdc/internal/verdict"
)

// synth fills a field with a smooth multi-frequency signal plus a sharp
// feature, deterministic per dims.
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
			v += math.Sin(2*math.Pi*x*(float64(d)+1.5)) * (1.0 / (float64(d) + 1))
		}
		// Sharp ridge to exercise unpredictable points.
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
		t.Fatalf("maxAbsError: %v", err)
	}
	if maxErr > opts.ErrorBound*(1+1e-12) {
		t.Fatalf("error bound violated: %g > %g", maxErr, opts.ErrorBound)
	}
	return out
}

// TestRadiusBound: the largest radius a stream can carry, 2^30, round-trips
// with QP on and off; one past it is refused at compress time rather than
// written into a stream Decompress rejects.
func TestRadiusBound(t *testing.T) {
	f := synth(9, 10, 11)
	for _, qp := range []bool{false, true} {
		opts := DefaultOptions(1e-3)
		if qp {
			opts = opts.WithQP()
		}
		opts.Radius = 1 << 30
		roundTrip(t, f, opts)
		opts.Radius++
		if _, err := Compress(f, opts); !errors.Is(err, verdict.ErrBadOptions) {
			t.Errorf("qp=%v radius 2^30+1: got %v, want ErrBadOptions", qp, err)
		}
	}
}

func TestRoundTrip3D(t *testing.T) {
	f := synth(33, 40, 37)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		roundTrip(t, f, DefaultOptions(eb))
	}
}

func TestRoundTrip3DWithQP(t *testing.T) {
	f := synth(33, 40, 37)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		roundTrip(t, f, DefaultOptions(eb).WithQP())
	}
}

// TestQPBitIdentical verifies the paper's central reversibility claim:
// QP changes the compressed representation but the decompressed data is
// bit-identical to the base compressor's output (Section V).
func TestQPBitIdentical(t *testing.T) {
	f := synth(48, 31, 52)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
		base := DefaultOptions(eb)
		base.Choice = ChoiceInterp
		qp := base.WithQP()
		outBase := roundTrip(t, f, base)
		outQP := roundTrip(t, f, qp)
		if !outBase.Equal(outQP) {
			t.Fatalf("eb=%g: QP output differs from base output", eb)
		}
	}
}

// TestQPAllConfigs exercises the full configuration space of Section V-C:
// every prediction dimension, condition case, and start level must
// round-trip losslessly at the index level.
func TestQPAllConfigs(t *testing.T) {
	f := synth(30, 29, 31)
	base := DefaultOptions(1e-3)
	base.Choice = ChoiceInterp
	want := roundTrip(t, f, base)
	for mode := core.Mode1DBack; mode <= core.Mode3D; mode++ {
		for cond := core.CondAlways; cond <= core.CondSameSign3; cond++ {
			for _, lvl := range []int{0, 1, 2, 3} {
				opts := base
				opts.QP = core.Config{Mode: mode, Cond: cond, MaxLevel: lvl}
				got := roundTrip(t, f, opts)
				if !want.Equal(got) {
					t.Fatalf("mode=%v cond=%v lvl=%d: output differs", mode, cond, lvl)
				}
			}
		}
	}
}

func TestRoundTripLowDims(t *testing.T) {
	cases := [][]int{{1000}, {64, 80}, {7, 9, 11}, {4, 6, 5, 8}, {1, 1, 1}, {2, 2, 2}, {1, 50, 60}}
	for _, dims := range cases {
		f := synth(dims...)
		roundTrip(t, f, DefaultOptions(1e-3).WithQP())
	}
}

func TestRoundTripLorenzo(t *testing.T) {
	f := synth(30, 31, 32)
	opts := DefaultOptions(1e-4)
	opts.Choice = ChoiceLorenzo
	roundTrip(t, f, opts)
}

func TestRoundTripLinearInterp(t *testing.T) {
	f := synth(30, 31, 32)
	opts := DefaultOptions(1e-3)
	opts.Interp = interp.Linear
	roundTrip(t, f, opts)
}

// TestRoundTripAutoBackend: lossless.Auto names no back-end an engine
// writes, so it is an options error, and the QP stream round-trips on the
// default back-end.
func TestRoundTripAutoBackend(t *testing.T) {
	f := synth(30, 31, 32)
	opts := DefaultOptions(1e-3).WithQP()
	roundTrip(t, f, opts)
	opts.Lossless = lossless.Auto
	if _, err := Compress(f, opts); !errors.Is(err, verdict.ErrBadOptions) {
		t.Fatalf("lossless.Auto: got %v, want ErrBadOptions", err)
	}
}

func TestQPImprovesCompression(t *testing.T) {
	// On a smooth correlated field the QP-transformed index stream should
	// not be larger than the base stream (the paper reports strict gains
	// on clustered data; on tiny fields we accept parity).
	f := synth(64, 64, 64)
	base := DefaultOptions(1e-4)
	base.Choice = ChoiceInterp
	pb, err := Compress(f, base)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Compress(f, base.WithQP())
	if err != nil {
		t.Fatal(err)
	}
	if len(pq) > len(pb)*105/100 {
		t.Fatalf("QP enlarged stream: base=%d qp=%d", len(pb), len(pq))
	}
	t.Logf("base=%d qp=%d (%.1f%% gain)", len(pb), len(pq), 100*(1-float64(len(pq))/float64(len(pb))))
}

func TestCorruptStreams(t *testing.T) {
	f := synth(16, 16, 16)
	payload, err := Compress(f, DefaultOptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(payload[:len(payload)/2], f.Dims()); err == nil {
		t.Error("truncated payload decompressed without error")
	}
	if _, err := Decompress(payload, []int{16, 16}); err == nil {
		t.Error("wrong dims accepted")
	}
	if _, err := Decompress(nil, f.Dims()); err == nil {
		t.Error("nil payload accepted")
	}
}

func TestBadOptions(t *testing.T) {
	f := synth(8, 8, 8)
	if _, err := Compress(f, Options{ErrorBound: 0}); err == nil {
		t.Error("zero error bound accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: math.Inf(1)}); err == nil {
		t.Error("infinite error bound accepted")
	}
	opts := DefaultOptions(1e-3)
	opts.Choice = ChoiceLorenzo + 1
	if _, err := Compress(f, opts); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("unknown predictor choice: got %v, want ErrBadOptions", err)
	}
}

// TestTraceReuse: a Trace reused across calls reports the last call only,
// so a QP-off compress after a QP-on one leaves no QP array or count.
func TestTraceReuse(t *testing.T) {
	f := synth(20, 20, 20)
	tr := &Trace{}
	opts := DefaultOptions(1e-3).WithQP()
	opts.Choice = ChoiceInterp
	opts.Trace = tr
	if _, err := Compress(f, opts); err != nil {
		t.Fatal(err)
	}
	if len(tr.QP) != f.Len() || tr.Compensated == 0 {
		t.Fatalf("QP-on trace: %d QP symbols, %d compensated", len(tr.QP), tr.Compensated)
	}
	opts.QP = core.Config{}
	if _, err := Compress(f, opts); err != nil {
		t.Fatal(err)
	}
	if len(tr.QP) != 0 || tr.Compensated != 0 {
		t.Errorf("QP-off trace kept %d QP symbols and %d compensated from the previous call", len(tr.QP), tr.Compensated)
	}
	if len(tr.Q) != f.Len() {
		t.Errorf("QP-off trace has %d symbols, want %d", len(tr.Q), f.Len())
	}
}

func TestTraceCapture(t *testing.T) {
	f := synth(20, 20, 20)
	tr := &Trace{}
	opts := DefaultOptions(1e-3).WithQP()
	opts.Choice = ChoiceInterp
	opts.Trace = tr
	if _, err := Compress(f, opts); err != nil {
		t.Fatal(err)
	}
	if len(tr.Q) != f.Len() || len(tr.QP) != f.Len() {
		t.Fatalf("trace lengths Q=%d QP=%d want %d", len(tr.Q), len(tr.QP), f.Len())
	}
	if tr.Lorenzo {
		t.Fatalf("trace reports the Lorenzo fallback under ChoiceInterp")
	}
	if tr.Levels != Levels(f.Dims()) {
		t.Fatalf("trace levels = %d", tr.Levels)
	}
	diff := 0
	for i := range tr.Q {
		if tr.Q[i] != tr.QP[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("QP never compensated any point on correlated data")
	}
}

// TestQPLorenzoExtension exercises the Section VII future-work extension:
// in Lorenzo mode, QP on — chosen by the entropy estimate or forced —
// must round-trip bit-identically with QP off, in 2D, 3D and 4D, and the
// chosen stream must never be the larger one.
func TestQPLorenzoExtension(t *testing.T) {
	for _, dims := range [][]int{{60, 70}, {36, 40, 44}, {3, 12, 16, 20}} {
		f := synth(dims...)
		base := DefaultOptions(1e-4)
		base.Choice = ChoiceLorenzo
		want := roundTrip(t, f, base)

		ext := base.WithQP()
		forced := ext
		forced.ForceQP = true
		for _, opts := range []Options{ext, forced} {
			if got := roundTrip(t, f, opts); !want.Equal(got) {
				t.Fatalf("%v, forced=%v: Lorenzo QP changed decompressed data", dims, opts.ForceQP)
			}
		}

		pb, err := Compress(f, base)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := Compress(f, ext)
		if err != nil {
			t.Fatal(err)
		}
		if len(pq) > len(pb) {
			t.Fatalf("%v: Lorenzo QP enlarged stream: %d > %d", dims, len(pq), len(pb))
		}
		t.Logf("%v: lorenzo base=%d qp=%d (%.2f%%)", dims, len(pb), len(pq),
			100*(float64(len(pb))/float64(len(pq))-1))
	}
}
