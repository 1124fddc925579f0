package core

import (
	"errors"
	"testing"
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
	q, qp := make([]int32, n), make([]int32, n)

	side := Work{Data: data, Q: q, QP: qp}.Sweep(1).GatherCoarse(dims, 1, center)
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
		if q[i] != qp[i] {
			t.Fatalf("q and qp differ at %d", i)
		}
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

	corrupt := errors.New("engine: corrupt")
	out, enc := make([]float64, n), make([]int32, n)
	dec := NewSweep(out, enc)
	dec.Corrupt = corrupt
	if err := dec.ScatterCoarse(dims, 1, center, side); err != nil {
		t.Fatal(err)
	}
	for _, v := range want {
		if out[int(v)] != v || enc[int(v)] != center {
			t.Fatalf("point %v not restored", v)
		}
	}
	for _, bad := range [][]float64{side[:len(side)-1], append(side[:len(side):len(side)], 0), nil} {
		if err := dec.ScatterCoarse(dims, 1, center, bad); !errors.Is(err, corrupt) {
			t.Errorf("%d values for %d lattice points: got %v, want the engine's sentinel", len(bad), len(want), err)
		}
	}
	// Past the field's extent the lattice is the origin alone.
	if got := NewSweep(data, q).GatherCoarse(dims, 6, center); len(got) != 1 || got[0] != 0 {
		t.Errorf("levels=6: gathered %v, want the origin", got)
	}
}
