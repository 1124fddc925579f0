package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnown(t *testing.T) {
	// DFT of an impulse is flat.
	re := []float64{1, 0, 0, 0}
	im := make([]float64, 4)
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	for i := range re {
		if math.Abs(re[i]-1) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("impulse FFT wrong at %d: %g %g", i, re[i], im[i])
		}
	}
}

func TestFFTInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4, 64, 1024} {
		re := make([]float64, n)
		im := make([]float64, n)
		want := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			want[i] = re[i]
		}
		if err := FFT(re, im); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(re, im); err != nil {
			t.Fatal(err)
		}
		for i := range re {
			if math.Abs(re[i]-want[i]) > 1e-9 || math.Abs(im[i]) > 1e-9 {
				t.Fatalf("n=%d: IFFT(FFT) mismatch at %d", n, i)
			}
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if err := FFT(make([]float64, 3), make([]float64, 3)); err != ErrNotPow2 {
		t.Fatalf("err = %v", err)
	}
	if err := FFT(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := FFT(nil, nil); err != ErrNotPow2 {
		t.Fatalf("empty err = %v", err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	re := make([]float64, n)
	im := make([]float64, n)
	e0 := 0.0
	for i := range re {
		re[i] = rng.NormFloat64()
		e0 += re[i] * re[i]
	}
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	e1 := 0.0
	for i := range re {
		e1 += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(e1/float64(n)-e0) > 1e-9*e0 {
		t.Fatalf("Parseval violated: %g vs %g", e1/float64(n), e0)
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 8, 64, 100, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := DCT2(x)
		y := DCT3(c)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: DCT round trip mismatch at %d: %g vs %g", n, i, y[i], x[i])
			}
		}
	}
}

func TestDCTOrthonormal(t *testing.T) {
	// Energy preservation for the orthonormal DCT-II.
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{16, 31} {
		x := make([]float64, n)
		e0 := 0.0
		for i := range x {
			x[i] = rng.NormFloat64()
			e0 += x[i] * x[i]
		}
		c := DCT2(x)
		e1 := 0.0
		for _, v := range c {
			e1 += v * v
		}
		if math.Abs(e1-e0) > 1e-9*e0 {
			t.Fatalf("n=%d: DCT not orthonormal: %g vs %g", n, e1, e0)
		}
	}
}

func TestDCTConstantSignal(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	c := DCT2(x)
	if math.Abs(c[0]-6) > 1e-12 { // 3*sqrt(4) = 6
		t.Fatalf("DC coefficient = %g", c[0])
	}
	for k := 1; k < 4; k++ {
		if math.Abs(c[k]) > 1e-12 {
			t.Fatalf("AC coefficient %d = %g", k, c[k])
		}
	}
}

func TestWaveletRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 16, 64, 100, 256} {
		x := make([]float64, n)
		want := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			want[i] = x[i]
		}
		FWT97(x)
		IWT97(x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: wavelet round trip mismatch at %d", n, i)
			}
		}
	}
}

func TestWaveletCompactsSmooth(t *testing.T) {
	// A smooth ramp should put most energy in the low band.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	FWT97(x)
	lo, hi := 0.0, 0.0
	for i, v := range x {
		if i < n/2 {
			lo += v * v
		} else {
			hi += v * v
		}
	}
	if hi > lo/100 {
		t.Fatalf("high band too energetic: lo=%g hi=%g", lo, hi)
	}
}

func TestWaveletOddAndTiny(t *testing.T) {
	// Odd or tiny inputs are left untouched (no-op contract).
	x := []float64{1, 2, 3}
	FWT97(x)
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatal("odd-length input modified")
	}
	y := []float64{5}
	IWT97(y)
	if y[0] != 5 {
		t.Fatal("singleton modified")
	}
}

// TestQuickWavelet property: FWT97/IWT97 round-trips any even-length
// signal.
func TestQuickWavelet(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) &^ 1
		x := append([]float64(nil), raw[:n]...)
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return true
			}
			if math.Abs(x[i]) > 1e100 {
				x[i] = 0
			}
		}
		want := append([]float64(nil), x...)
		FWT97(x)
		IWT97(x)
		for i := range x {
			tol := 1e-9 * math.Max(1, math.Abs(want[i]))
			if math.Abs(x[i]-want[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
