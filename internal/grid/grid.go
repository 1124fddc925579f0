// Package grid provides N-dimensional scalar field containers and strided
// index arithmetic shared by every compressor in this repository.
//
// Fields are stored in row-major order with the first dimension slowest.
// For a 3D field with dims [D0, D1, D2] the flat index of (i, j, k) is
// i*D1*D2 + j*D2 + k. The paper's datasets list dimensions the same way
// (e.g. SegSalt 1008x1008x352 stores the 352-extent fastest).
package grid

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxDims is the largest dimensionality supported by the compressors.
// The paper evaluates 3D fields plus one 4D field (RTM) that is processed
// as independent 3D slices, so 4 is sufficient and keeps stack arrays cheap.
const MaxDims = 4

// ErrBadDims reports an invalid dimension specification.
var ErrBadDims = errors.New("grid: invalid dimensions")

// Field is an N-dimensional scalar field of float64 samples.
//
// All compressors operate on float64 internally; the public API converts
// float32 inputs at the boundary. Data is owned by the Field but may alias
// caller memory when constructed with FromSlice.
type Field struct {
	Data []float64
	dims []int
	strd []int // strides, same length as dims
}

// New allocates a zero-filled field with the given dimensions.
func New(dims ...int) (*Field, error) {
	n, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	f := &Field{Data: make([]float64, n)}
	f.setDims(dims)
	return f, nil
}

// MustNew is New but panics on invalid dimensions. Intended for tests and
// examples where dimensions are compile-time constants.
func MustNew(dims ...int) *Field {
	f, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return f
}

// FromSlice wraps data (without copying) as a field with the given
// dimensions. len(data) must equal the product of dims.
func FromSlice(data []float64, dims ...int) (*Field, error) {
	n, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (need %d): %w",
			len(data), dims, n, ErrBadDims)
	}
	f := &Field{Data: data}
	f.setDims(dims)
	return f, nil
}

// CheckDims validates a dimension list and returns the total element count.
func CheckDims(dims []int) (int, error) {
	if len(dims) == 0 || len(dims) > MaxDims {
		return 0, fmt.Errorf("grid: need 1..%d dimensions, got %d: %w", MaxDims, len(dims), ErrBadDims)
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("grid: non-positive extent in %v: %w", dims, ErrBadDims)
		}
		if n > (1<<62)/d {
			return 0, fmt.Errorf("grid: dims %v overflow: %w", dims, ErrBadDims)
		}
		n *= d
	}
	return n, nil
}

// ParseDims reads an AxBxC geometry, as the command-line tools take it:
// positive extents separated by "x". The empty string is no geometry
// (nil, nil), for flags whose default is the dataset's own.
func ParseDims(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dims %q: %w", s, ErrBadDims)
		}
		dims[i] = v
	}
	return dims, nil
}

func (f *Field) setDims(dims []int) {
	f.dims = append([]int(nil), dims...)
	f.strd = Strides(f.dims)
}

// Strides returns the row-major stride of each dimension.
func Strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// LineBase returns the flat index of the start of the line-th line
// running along axis (lines enumerated over the remaining axes in
// row-major order). strides is Strides(dims).
func LineBase(dims, strides []int, axis, line int) int {
	base := 0
	for a := len(dims) - 1; a >= 0; a-- {
		if a == axis {
			continue
		}
		base += (line % dims[a]) * strides[a]
		line /= dims[a]
	}
	return base
}

// Collapse3 views 1..4D dims as a 3D shape for the transform comparators
// (ZFP, TTHRESH, SPERR): missing leading axes have extent 1 and the two
// slowest axes of a 4D field merge into one.
func Collapse3(dims []int) (nx, ny, nz int) {
	switch len(dims) {
	case 1:
		return 1, 1, dims[0]
	case 2:
		return 1, dims[0], dims[1]
	case 3:
		return dims[0], dims[1], dims[2]
	default:
		return dims[0] * dims[1], dims[2], dims[3]
	}
}

// PadEdge embeds a row-major volume of extents n into one of extents
// p >= n, replicating the last sample of each axis into the padding
// (replication keeps boundary discontinuities, and thus spectral
// leakage, small).
func PadEdge(data []float64, n, p [3]int) []float64 {
	out := make([]float64, p[0]*p[1]*p[2])
	for x := 0; x < p[0]; x++ {
		sx := min(x, n[0]-1)
		for y := 0; y < p[1]; y++ {
			row := (sx*n[1] + min(y, n[1]-1)) * n[2]
			drow := (x*p[1] + y) * p[2]
			for z := 0; z < p[2]; z++ {
				out[drow+z] = data[row+min(z, n[2]-1)]
			}
		}
	}
	return out
}

// Dims returns the dimension extents. The returned slice must not be
// modified.
func (f *Field) Dims() []int { return f.dims }

// Stride returns the flat-index stride of dimension d.
func (f *Field) Stride(d int) int { return f.strd[d] }

// NDims returns the number of dimensions.
func (f *Field) NDims() int { return len(f.dims) }

// Len returns the total number of samples.
func (f *Field) Len() int { return len(f.Data) }

// At returns the sample at the given coordinates.
func (f *Field) At(coord ...int) float64 { return f.Data[f.Index(coord...)] }

// Set stores v at the given coordinates.
func (f *Field) Set(v float64, coord ...int) { f.Data[f.Index(coord...)] = v }

// Index converts coordinates to a flat index. Coordinates are not
// bounds-checked beyond what the slice access in At/Set provides.
func (f *Field) Index(coord ...int) int {
	idx := 0
	for d, c := range coord {
		idx += c * f.strd[d]
	}
	return idx
}

// Coord converts a flat index back to coordinates, filling dst (which must
// have length NDims) and returning it.
func (f *Field) Coord(idx int, dst []int) []int {
	for d := 0; d < len(f.dims); d++ {
		dst[d] = idx / f.strd[d]
		idx %= f.strd[d]
	}
	return dst
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := &Field{Data: append([]float64(nil), f.Data...)}
	g.setDims(f.dims)
	return g
}

// MinMax returns the minimum and maximum sample values. For an empty field
// it returns (0, 0).
func (f *Field) MinMax() (lo, hi float64) {
	if len(f.Data) == 0 {
		return 0, 0
	}
	lo, hi = f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Range returns hi-lo, the value range of the field.
func (f *Field) Range() float64 {
	lo, hi := f.MinMax()
	return hi - lo
}

// Slice3 extracts, from a 3D field, the 2D plane where dimension axis is
// fixed at position pos. The result is a freshly allocated 2D field whose
// dims are the remaining two extents in order.
func (f *Field) Slice3(axis, pos int) (*Field, error) {
	if f.NDims() != 3 {
		return nil, fmt.Errorf("grid: Slice3 requires 3D field, got %dD: %w", f.NDims(), ErrBadDims)
	}
	if axis < 0 || axis > 2 || pos < 0 || pos >= f.dims[axis] {
		return nil, fmt.Errorf("grid: slice axis=%d pos=%d out of range for dims %v: %w", axis, pos, f.dims, ErrBadDims)
	}
	var a, b int // remaining axes in order
	switch axis {
	case 0:
		a, b = 1, 2
	case 1:
		a, b = 0, 2
	default:
		a, b = 0, 1
	}
	out := MustNew(f.dims[a], f.dims[b])
	base := pos * f.strd[axis]
	k := 0
	for i := 0; i < f.dims[a]; i++ {
		row := base + i*f.strd[a]
		for j := 0; j < f.dims[b]; j++ {
			out.Data[k] = f.Data[row+j*f.strd[b]]
			k++
		}
	}
	return out, nil
}

// Equal reports whether g has the same dims and bit-identical samples.
func (f *Field) Equal(g *Field) bool {
	if f.NDims() != g.NDims() {
		return false
	}
	for d := range f.dims {
		if f.dims[d] != g.dims[d] {
			return false
		}
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			return false
		}
	}
	return true
}

// FromFloat32 wraps 32-bit data as a float64 field (copying/widening).
func FromFloat32(data []float32, dims ...int) (*Field, error) {
	n, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v: %w", len(data), dims, ErrBadDims)
	}
	wide := make([]float64, n)
	for i, v := range data {
		wide[i] = float64(v)
	}
	return FromSlice(wide, dims...)
}
