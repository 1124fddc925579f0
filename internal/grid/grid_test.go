package grid

import (
	"errors"
	"slices"
	"testing"
)

func TestNewAndIndex(t *testing.T) {
	f, err := New(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 60 {
		t.Fatalf("len = %d", f.Len())
	}
	if f.NDims() != 3 {
		t.Fatalf("ndims = %d", f.NDims())
	}
	if got := f.Index(1, 2, 3); got != 1*20+2*5+3 {
		t.Fatalf("index = %d", got)
	}
	f.Set(42, 2, 3, 4)
	if f.At(2, 3, 4) != 42 {
		t.Fatal("set/at mismatch")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	f := MustNew(3, 7, 2, 5)
	dst := make([]int, 4)
	for i := 0; i < f.Len(); i++ {
		c := f.Coord(i, dst)
		if f.Index(c...) != i {
			t.Fatalf("coord round trip failed at %d -> %v", i, c)
		}
	}
}

func TestBadDims(t *testing.T) {
	cases := [][]int{{}, {0}, {-1, 3}, {2, 0, 2}, {1, 2, 3, 4, 5}}
	for _, dims := range cases {
		if _, err := New(dims...); err == nil {
			t.Errorf("dims %v accepted", dims)
		}
	}
}

func TestParseDims(t *testing.T) {
	for in, want := range map[string][]int{
		"":      nil,
		"4":     {4},
		"2x3x4": {2, 3, 4},
	} {
		if got, err := ParseDims(in); err != nil || !slices.Equal(got, want) {
			t.Errorf("ParseDims(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"0x3", "ax3", "2x", "-1x2"} {
		if got, err := ParseDims(bad); !errors.Is(err, ErrBadDims) || got != nil {
			t.Errorf("ParseDims(%q) = %v, %v; want ErrBadDims", bad, got, err)
		}
	}
}

func TestFromSlice(t *testing.T) {
	data := make([]float64, 12)
	f, err := FromSlice(data, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Set(7, 1, 1)
	if data[5] != 7 {
		t.Fatal("FromSlice must alias caller memory")
	}
	if _, err := FromSlice(data, 3, 5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMinMaxRange(t *testing.T) {
	f := MustNew(4)
	copy(f.Data, []float64{3, -1, 7, 0})
	lo, hi := f.MinMax()
	if lo != -1 || hi != 7 {
		t.Fatalf("minmax = %g %g", lo, hi)
	}
	if f.Range() != 8 {
		t.Fatalf("range = %g", f.Range())
	}
}

func TestCloneEqual(t *testing.T) {
	f := MustNew(3, 3)
	f.Set(5, 1, 2)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Set(6, 1, 2)
	if f.Equal(g) {
		t.Fatal("mutated clone still equal")
	}
	h := MustNew(9)
	if f.Equal(h) {
		t.Fatal("different dims equal")
	}
}

func TestSlice3(t *testing.T) {
	f := MustNew(2, 3, 4)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	s, err := f.Slice3(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Dims(); got[0] != 3 || got[1] != 4 {
		t.Fatalf("slice dims %v", got)
	}
	if s.At(2, 3) != f.At(1, 2, 3) {
		t.Fatal("slice content mismatch (axis 0)")
	}
	s, err = f.Slice3(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 3) != f.At(1, 2, 3) {
		t.Fatal("slice content mismatch (axis 1)")
	}
	s, err = f.Slice3(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 2) != f.At(1, 2, 3) {
		t.Fatal("slice content mismatch (axis 2)")
	}
	if _, err := f.Slice3(3, 0); err == nil {
		t.Error("bad axis accepted")
	}
	if _, err := f.Slice3(0, 2); err == nil {
		t.Error("out-of-range pos accepted")
	}
	if _, err := MustNew(2, 2).Slice3(0, 0); err == nil {
		t.Error("2D field accepted by Slice3")
	}
}

func TestFloat32Conversions(t *testing.T) {
	f32 := []float32{1.5, -2.25, 3}
	f, err := FromFloat32(f32, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f32 {
		if float32(f.Data[i]) != f32[i] {
			t.Fatalf("float32 round trip mismatch at %d", i)
		}
	}
	if _, err := FromFloat32(f32, 4); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestStrides(t *testing.T) {
	s := Strides([]int{3, 4, 5})
	if s[0] != 20 || s[1] != 5 || s[2] != 1 {
		t.Fatalf("strides = %v", s)
	}
}

func TestCollapse3PadEdge(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		want [3]int
	}{
		{[]int{7}, [3]int{1, 1, 7}},
		{[]int{5, 7}, [3]int{1, 5, 7}},
		{[]int{3, 5, 7}, [3]int{3, 5, 7}},
		{[]int{2, 3, 5, 7}, [3]int{6, 5, 7}},
	} {
		nx, ny, nz := Collapse3(tc.dims)
		if got := [3]int{nx, ny, nz}; got != tc.want {
			t.Errorf("Collapse3(%v) = %v, want %v", tc.dims, got, tc.want)
		}
	}

	// 1x2x3 into 1x3x4: every padded sample is the nearest valid one.
	got := PadEdge([]float64{1, 2, 3, 4, 5, 6}, [3]int{1, 2, 3}, [3]int{1, 3, 4})
	want := []float64{1, 2, 3, 3, 4, 5, 6, 6, 4, 5, 6, 6}
	if !slices.Equal(got, want) {
		t.Errorf("PadEdge = %v, want %v", got, want)
	}
}
