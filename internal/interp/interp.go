// Package interp provides the interpolation kernels used by the
// interpolation-based compressors (SZ3, QoZ, HPEZ, MGARD). It implements
// the linear and cubic spline predictors of SZ3 (paper Section IV-A) with
// the boundary fallbacks of the reference implementation, plus the
// multilinear kernels used by MGARD and the multi-dimensional kernels used
// by HPEZ.
package interp

// Kind selects an interpolation family.
type Kind byte

const (
	// Linear is two-point linear interpolation.
	Linear Kind = 0
	// Cubic is four-point cubic spline interpolation.
	Cubic Kind = 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Cubic {
		return "cubic"
	}
	return "linear"
}

// Mid2 is the two-point linear midpoint kernel, written overflow-safe so
// the prediction stays within the hull of its neighbors even for values
// near the float64 limit.
//
//scdc:inline
func Mid2(a, b float64) float64 { return a/2 + b/2 }

// Cubic4 is the four-point cubic spline midpoint kernel used by SZ3:
// p = (-a + 9b + 9c - d)/16 for samples a,b,c,d at -3s,-s,+s,+3s.
//
//scdc:inline
func Cubic4(a, b, c, d float64) float64 { return (-a + 9*b + 9*c - d) / 16 }

// Quad3Left is the quadratic kernel when only the left third point exists:
// samples a,b,c at -3s,-s,+s.
//
//scdc:inline
func Quad3Left(a, b, c float64) float64 { return (-a + 6*b + 3*c) / 8 }

// Quad3Right is the quadratic kernel when only the right third point
// exists: samples b,c,d at -s,+s,+3s.
//
//scdc:inline
func Quad3Right(b, c, d float64) float64 { return (3*b + 6*c - d) / 8 }

// ExtrapLeft2 linearly extrapolates past the right boundary from samples
// a,b at -3s,-s: p = 1.5b - 0.5a.
//
//scdc:inline
func ExtrapLeft2(a, b float64) float64 { return 1.5*b - 0.5*a }

// Line predicts the value at position t along a 1D line of extent n with
// sampling stride s, where values at even multiples of s (and, within the
// current pass, positions < t of the same parity) are available through
// at. t must be an odd multiple of s with 0 <= t < n. The kernel choice
// follows SZ3: full cubic in the interior, quadratic near one boundary,
// linear otherwise, extrapolation when the right neighbor is missing.
func Line(at func(int) float64, n, t, s int, kind Kind) float64 {
	switch StencilAt(n, t, s, kind) {
	case StCubic4:
		return Cubic4(at(t-3*s), at(t-s), at(t+s), at(t+3*s))
	case StQuad3Left:
		return Quad3Left(at(t-3*s), at(t-s), at(t+s))
	case StQuad3Right:
		return Quad3Right(at(t-s), at(t+s), at(t+3*s))
	case StMid2:
		return Mid2(at(t-s), at(t+s))
	case StExtrapLeft2:
		return ExtrapLeft2(at(t-3*s), at(t-s))
	default:
		return at(t - s)
	}
}

// Stencil names one of Line's six boundary cases. A sweep whose boundary
// structure is constant along a run (the lattice row kernels: every outer
// axis has one case per row, the run axis one per head/interior/tail
// segment) classifies once with StencilAt and applies the case to the
// whole run in a loop specialised to it; At applies it at one point.
type Stencil uint8

const (
	// StCubic4 is the interior four-point cubic stencil.
	StCubic4 Stencil = iota
	// StQuad3Left is the quadratic stencil with the right third missing.
	StQuad3Left
	// StQuad3Right is the quadratic stencil with the left third missing.
	StQuad3Right
	// StMid2 is the two-point midpoint.
	StMid2
	// StExtrapLeft2 extrapolates when the right neighbor is missing.
	StExtrapLeft2
	// StCopyLeft copies the left neighbor, the only sample in range.
	StCopyLeft
)

// StencilAt classifies position t on a line of extent n at sampling
// stride s — the one definition Line, LineSlice and the kernels share:
// full cubic in the interior, quadratic near one boundary, linear
// otherwise, extrapolation when the right neighbor is missing.
func StencilAt(n, t, s int, kind Kind) Stencil {
	hasR := t+s < n
	hasL3 := t-3*s >= 0
	hasR3 := t+3*s < n
	switch {
	case kind == Cubic && hasL3 && hasR3:
		return StCubic4
	case kind == Cubic && hasL3 && hasR:
		return StQuad3Left
	case kind == Cubic && hasR3: // implies hasR; left third missing
		return StQuad3Right
	case hasR:
		return StMid2
	case hasL3:
		return StExtrapLeft2
	default:
		return StCopyLeft
	}
}

// At applies the stencil at flat index o of data, with ss the flat
// offset of one sampling stride along the line. The arithmetic is Line's,
// term for term.
func (st Stencil) At(data []float64, o, ss int) float64 {
	switch st {
	case StCubic4:
		return Cubic4(data[o-3*ss], data[o-ss], data[o+ss], data[o+3*ss])
	case StQuad3Left:
		return Quad3Left(data[o-3*ss], data[o-ss], data[o+ss])
	case StQuad3Right:
		return Quad3Right(data[o-ss], data[o+ss], data[o+3*ss])
	case StMid2:
		return Mid2(data[o-ss], data[o+ss])
	case StExtrapLeft2:
		return ExtrapLeft2(data[o-3*ss], data[o-ss])
	default:
		return data[o-ss]
	}
}

// LineSlice is Line specialized to a strided slice: it predicts the value
// at position t along the line starting at flat index base with flat
// stride strd in data. It selects exactly the same kernels as Line and
// performs the arithmetic in the same order, so predictions are
// bit-identical to the closure form — but the call compiles to direct
// loads with no per-point closure, which is what the tuners' sampling
// loops and the kernels' references require.
func LineSlice(data []float64, base, strd, n, t, s int, kind Kind) float64 {
	return StencilAt(n, t, s, kind).At(data, base+t*strd, s*strd)
}

// LinearCubic is LineSlice for both kinds at once: it classifies t's
// boundary case once and loads each neighbour once. Without a right
// neighbour the kinds coincide; with one, Linear is the midpoint and
// Cubic the stencil its thirds allow. Each prediction is LineSlice's, bit
// for bit.
//
//scdc:noalloc
func LinearCubic(data []float64, base, strd, n, t, s int) (lin, cub float64) {
	o, ss := base+t*strd, s*strd
	b := data[o-ss]
	switch {
	case t+s < n:
		c := data[o+ss]
		lin = Mid2(b, c)
		cub = lin
		if l3, r3 := t-3*s >= 0, t+3*s < n; l3 && r3 {
			cub = Cubic4(data[o-3*ss], b, c, data[o+3*ss])
		} else if l3 {
			cub = Quad3Left(data[o-3*ss], b, c)
		} else if r3 {
			cub = Quad3Right(b, c, data[o+3*ss])
		}
		return lin, cub
	case t-3*s >= 0:
		lin = ExtrapLeft2(data[o-3*ss], b)
		return lin, lin
	default:
		return b, b
	}
}
