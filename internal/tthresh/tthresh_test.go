package tthresh

import (
	"encoding/binary"
	"math"
	"testing"

	"scdc/internal/grid"
	"scdc/internal/lossless"
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
	// The index block is the plain Huffman layout, whose first byte (the
	// uvarint of a nonempty table header's length) is never the 0x00 of
	// a marked sub-format, however skewed the coefficients.
	buf, err := lossless.Decompress(payload)
	if err != nil {
		t.Fatalf("lossless: %v", err)
	}
	if _, k := binary.Uvarint(buf[8:]); buf[8+k] == 0 {
		t.Fatalf("eb %g: index block has marker %#x", eb, buf[8+k:8+k+2])
	}
	out, err := Decompress(payload, f.Dims())
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	mse, err := metrics.MSE(f.Data, out.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Norm-based control: RMSE within the eb/2 budget (plus slack for
	// padding-region energy bleeding into the valid region).
	if math.Sqrt(mse) > eb {
		t.Fatalf("RMSE budget violated: %g > %g", math.Sqrt(mse), eb)
	}
}

func TestRoundTrip(t *testing.T) {
	f := synth(40, 37, 33)
	for _, eb := range []float64{1, 1e-1, 1e-3, 1e-5} {
		roundTrip(t, f, eb)
	}
}

func TestLowDims(t *testing.T) {
	for _, dims := range [][]int{{500}, {60, 70}, {5, 6, 7}, {1, 40, 40}, {3, 4, 5, 6}, {1, 1, 1}} {
		roundTrip(t, synth(dims...), 1e-3)
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
}
