package core

import (
	"errors"
	"math"
	"testing"

	"scdc/internal/lossless"
	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// TestCoarseLatticeGatherScatter: the walk visits exactly the points whose
// coordinates are all multiples of 2^levels, in row-major order; gather
// stamps the center symbol there and nowhere else; scatter puts the values
// back and rejects a side block of any other length.
func TestCoarseLatticeGatherScatter(t *testing.T) {
	dims := []int{5, 4, 7} // strides 28, 7, 1
	const n, center = 5 * 4 * 7, int32(9)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	q := make([]int32, n)

	side := (&Sweep{Data: data, Sym: q}).GatherCoarse(dims, 1, center)
	var want []float64
	for x := 0; x < 5; x += 2 {
		for y := 0; y < 4; y += 2 {
			for z := 0; z < 7; z += 2 {
				want = append(want, float64(x*28+y*7+z))
			}
		}
	}
	if len(side) != len(want) {
		t.Fatalf("gathered %d values, want %d", len(side), len(want))
	}
	stamped := 0
	for i := range q {
		if q[i] == center {
			stamped++
		}
	}
	if stamped != len(want) {
		t.Fatalf("%d points stamped, want %d", stamped, len(want))
	}
	for i, v := range want {
		if side[i] != v || q[int(v)] != center {
			t.Fatalf("value %d: got %v (symbol %d), want %v on the lattice", i, side[i], q[int(v)], v)
		}
	}

	out, enc := make([]float64, n), make([]int32, n)
	dec := NewSweep(out, enc)
	if err := dec.ScatterCoarse(dims, 1, center, side); err != nil {
		t.Fatal(err)
	}
	for _, v := range want {
		if out[int(v)] != v || enc[int(v)] != center {
			t.Fatalf("point %v not restored", v)
		}
	}
	for _, bad := range [][]float64{side[:len(side)-1], append(side[:len(side):len(side)], 0), nil} {
		if err := dec.ScatterCoarse(dims, 1, center, bad); !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%d values for %d lattice points: got %v, want ErrCorrupt", len(bad), len(want), err)
		}
	}
	// Past the field's extent the lattice is the origin alone.
	if got := NewSweep(data, q).GatherCoarse(dims, 6, center); len(got) != 1 || got[0] != 0 {
		t.Errorf("levels=6: gathered %v, want the origin", got)
	}
}

// TestNormalize: the shared options are validated in one place, for all
// four engines. Defaults are filled in, and an unusable bound, a radius
// outside [2, 2^30] (the range DecodeQP reads back) and an undefined QP
// mode or condition are each verdict.ErrBadOptions.
func TestNormalize(t *testing.T) {
	var b Backend
	if err := b.Normalize(1e-3); err != nil {
		t.Fatalf("zero Backend: %v", err)
	}
	if b.Radius != quantizer.DefaultRadius || b.Lossless != lossless.Flate {
		t.Errorf("defaults not filled: radius %d, lossless %v", b.Radius, b.Lossless)
	}
	for name, tc := range map[string]struct {
		eb float64
		b  Backend
	}{
		"zero bound":      {0, Backend{}},
		"negative bound":  {-1, Backend{}},
		"infinite bound":  {math.Inf(1), Backend{}},
		"NaN bound":       {math.NaN(), Backend{}},
		"radius 1":        {1e-3, Backend{Radius: 1}},
		"negative radius": {1e-3, Backend{Radius: -4}},
		"QP mode":         {1e-3, Backend{QP: Config{Mode: Mode3D + 1}}},
		"QP condition":    {1e-3, Backend{QP: Config{Mode: Mode2D, Cond: CondSameSign3 + 1}}},
		"radius 2^30+1":   {1e-3, Backend{Radius: 1<<30 + 1}},
	} {
		if err := tc.b.Normalize(tc.eb); !errors.Is(err, verdict.ErrBadOptions) {
			t.Errorf("%s: got %v, want ErrBadOptions", name, err)
		}
	}
}
