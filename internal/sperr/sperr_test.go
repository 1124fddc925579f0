package sperr

import (
	"math"
	"testing"

	"scdc/internal/grid"
	"scdc/internal/metrics"
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
		f.Data[i] = v
	}
	return f
}

func roundTrip(t *testing.T, f *grid.Field, eb float64) {
	t.Helper()
	payload, err := Compress(f, DefaultOptions(eb))
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
	if maxErr > eb {
		t.Fatalf("error bound violated: %g > %g", maxErr, eb)
	}
}

func TestRoundTrip(t *testing.T) {
	f := synth(40, 37, 33)
	for _, eb := range []float64{1e-1, 1e-3, 1e-5} {
		roundTrip(t, f, eb)
	}
}

func TestLowDims(t *testing.T) {
	for _, dims := range [][]int{{500}, {60, 70}, {5, 6, 7}, {1, 40, 40}, {3, 4, 5, 6}, {1, 1, 1}, {64, 64, 64}} {
		roundTrip(t, synth(dims...), 1e-3)
	}
}

func TestPlanPadding(t *testing.T) {
	pl := makePlan([]int{33, 40, 37})
	if pl.levels < 1 {
		t.Fatalf("levels = %d", pl.levels)
	}
	m := 1 << uint(pl.levels)
	for _, p := range []int{pl.px, pl.py, pl.pz} {
		if p%m != 0 {
			t.Fatalf("padded extent %d not a multiple of %d", p, m)
		}
	}
	if pl.px < pl.nx || pl.py < pl.ny || pl.pz < pl.nz {
		t.Fatal("padding shrank the volume")
	}
}

func TestCompressionCompetitive(t *testing.T) {
	f := synth(64, 64, 64)
	payload, err := Compress(f, DefaultOptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	raw := f.Len() * 8
	if len(payload) > raw/8 {
		t.Fatalf("poor compression: %d of %d", len(payload), raw)
	}
}

func TestOutlierCorrectionTriggers(t *testing.T) {
	// A field with an extreme spike must still satisfy the bound — only
	// achievable through the outlier pass.
	f := synth(32, 32, 32)
	f.Data[12345] += 1e6
	roundTrip(t, f, 1e-4)
}

func TestCorrupt(t *testing.T) {
	f := synth(16, 16, 16)
	payload, err := Compress(f, DefaultOptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(payload[:6], f.Dims()); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := Decompress(nil, f.Dims()); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := Decompress(payload, []int{16, 16}); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestBadOptions(t *testing.T) {
	f := synth(8, 8, 8)
	if _, err := Compress(f, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := Compress(f, Options{ErrorBound: math.Inf(1)}); err == nil {
		t.Error("inf bound accepted")
	}
}
