package sz3

import (
	"math/bits"

	"scdc/internal/core"
)

// Levels returns the number of interpolation levels for the given dims:
// the smallest L with 2^(L-1) <= max(extent-1), or 0 when every extent is
// 1 (a single point needs no interpolation).
func Levels(dims []int) int {
	m := 0
	for _, d := range dims {
		if d-1 > m {
			m = d - 1
		}
	}
	return bits.Len(uint(m))
}

// MaxAnchorLevels caps the interpolation depth of the engines that store
// a coarse lattice losslessly (QoZ's and HPEZ's anchors, MGARD's nodal
// values) at stride 2^levels — QoZ's default anchor stride is 64 — and the
// depth SZ3's mode estimate samples: coarser levels hold a negligible
// point fraction.
const MaxAnchorLevels = 6

// AnchorLevels is Levels clamped to [1, MaxAnchorLevels].
func AnchorLevels(dims []int) int {
	return min(max(Levels(dims), 1), MaxAnchorLevels)
}

// DefaultDirOrder returns the default interpolation direction order:
// fastest axis first (for SegSalt-style [x, y, z] layouts this is the
// z -> y -> x order the paper describes for SZ3).
func DefaultDirOrder(nd int) []int {
	order := make([]int, nd)
	for i := range order {
		order[i] = nd - 1 - i
	}
	return order
}

// pass describes one interpolation pass of one level: the points whose
// Dir-coordinate is an odd multiple of s, on the lattice spanned by step
// over the orthogonal axes. Every point of a pass depends only on lattice
// points established by previous passes (interpolation reads positions at
// even multiples of s along its own line only), so the pass's lines are
// mutually independent — the invariant that lets the kernels visit them
// in stride order.
type pass struct {
	dir, s, level int
	n             int    // extent along dir
	dstr          int    // flat stride along dir
	step          [4]int // per-axis lattice step (0 on dir)
	orth          [3]int // orthogonal axes, ascending (slowest first)
	no            int    // number of real orthogonal axes
	cnt           [3]int // lattice extent per orthogonal axis
	stride        [3]int // flat stride per orthogonal lattice step
	leftK, topK   int    // QP plane axes within orth (-1 when absent)
	numLines      int
	pointsPerLine int // number of predicted points per line
}

// forEachPass enumerates the passes of one level in direction order.
//
// Schedule (paper Section IV-A): at level l with stride s=2^(l-1) the
// known lattice holds multiples of 2s in every dim. The pass along dir
// predicts the points whose dir-coordinate is an odd multiple of s, whose
// already-processed axes sit at multiples of s and whose pending axes sit
// at multiples of 2s — the stride pattern of Figure 2 (2x2, 1x2, 1x1
// in-plane strides). Axes too short to hold an odd multiple of s have no
// pass and count as processed.
func forEachPass(dims, strides []int, level int, order []int, fn func(pa *pass)) {
	nd := len(dims)
	s := 1 << (level - 1)
	var done [4]bool
	var pa pass // handed to fn by address: one escape per level, not per pass
	for _, dir := range order {
		if dims[dir] <= 1 || s >= dims[dir] {
			done[dir] = true
			continue
		}
		var step [4]int
		for e := 0; e < nd; e++ {
			switch {
			case e == dir:
				step[e] = 0
			case done[e]:
				step[e] = s
			default:
				step[e] = 2 * s
			}
		}
		pa = makePass(dims, strides, dir, s, level, step)
		fn(&pa)
		done[dir] = true
	}
}

// makePass resolves the lattice geometry of one pass.
func makePass(dims, strides []int, dir, s, level int, step [4]int) pass {
	nd := len(dims)
	pa := pass{dir: dir, s: s, level: level, step: step}
	for e := 0; e < nd; e++ {
		if e != dir {
			pa.orth[pa.no] = e
			pa.no++
		}
	}
	pa.numLines = 1
	for k := 0; k < 3; k++ {
		if k < pa.no {
			ax := pa.orth[k]
			pa.cnt[k] = (dims[ax]-1)/step[ax] + 1
			pa.stride[k] = step[ax] * strides[ax]
		} else {
			pa.cnt[k] = 1
		}
		pa.numLines *= pa.cnt[k]
	}
	// QP plane axes: the two fastest orthogonal axes (largest axis index),
	// which in ascending orth order are the last two real entries.
	pa.leftK, pa.topK = -1, -1
	if pa.no >= 1 {
		pa.leftK = pa.no - 1
	}
	if pa.no >= 2 {
		pa.topK = pa.no - 2
	}
	pa.dstr = strides[dir]
	pa.n = dims[dir]
	pa.pointsPerLine = (pa.n - pa.s + 2*pa.s - 1) / (2 * pa.s) // count of odd multiples of s below n
	return pa
}

// qpRegion maps the pass onto the core.Region the kernelized QP sweeps
// operate on: the three orthogonal lattice axes plus the in-line point
// axis (odd multiples of s along dir, i.e. origin s*dstr, stride
// 2s*dstr). Left/Top live on the orthogonal axes makePass picked; Back
// is always the point axis. Region rows are exactly the lines of the
// reference walker in its order — the interpolation walk addresses lines
// through RowBase and the literal stream follows them — while the QP
// sweeps visit the region in stride order (core.Region.byStride).
func (pa *pass) qpRegion() core.Region {
	return core.Region{
		Base: pa.s * pa.dstr,
		Ext:  [4]int{pa.cnt[0], pa.cnt[1], pa.cnt[2], pa.pointsPerLine},
		Strd: [4]int{pa.stride[0], pa.stride[1], pa.stride[2], 2 * pa.s * pa.dstr},
		Left: pa.leftK, Top: pa.topK, Back: 3,
		Level: pa.level,
	}
}

// carry moves a point whose in-line position pos may have run past its
// line onto the line it lands on: the whole lines it passed carry into
// the orthogonal coordinates oc through the mixed radix cnt[2], cnt[1],
// cnt[0], the last of which is left unbounded, so oc[0] >= cnt[0] is a
// point past the pass. It divides only when pos leaves its line, and
// returns the new in-line position.
//
//scdc:noalloc
func (pa *pass) carry(oc *[3]int, pos int) int {
	if pos < pa.pointsPerLine {
		return pos
	}
	d := pos / pa.pointsPerLine
	pos -= d * pa.pointsPerLine
	if oc[2] += d; oc[2] >= pa.cnt[2] {
		d = oc[2] / pa.cnt[2]
		oc[2] -= d * pa.cnt[2]
		if oc[1] += d; oc[1] >= pa.cnt[1] {
			d = oc[1] / pa.cnt[1]
			oc[1] -= d * pa.cnt[1]
			oc[0] += d
		}
	}
	return pos
}

// SampleLevel calls fn for every step-th point of one level, counting
// through the level's passes in walk order (the points numbered step,
// 2*step, ... from 1), and touches no point in between: the cost is
// proportional to the samples, not to the level. A pass holds numLines x
// pointsPerLine points, line after line, so each sample's line
// coordinates and in-line position are carried over from the previous
// sample's, not rebuilt from its ordinal. fn receives the point's flat
// index idx, the geometry of its interpolation line (origin lineBase,
// flat stride lineStrd, extent n) and its position t along the line at
// level stride s — the arguments of interp.LineSlice.
func SampleLevel(dims, strides []int, level int, order []int, step int,
	fn func(idx, lineBase, lineStrd, n, t, s int)) {

	k := step - 1 // ordinal of the next sample within the current pass
	forEachPass(dims, strides, level, order, func(pa *pass) {
		points := pa.numLines * pa.pointsPerLine
		var oc [3]int
		for pos := pa.carry(&oc, k); k < points; pos = pa.carry(&oc, pos+step) {
			base := oc[0]*pa.stride[0] + oc[1]*pa.stride[1] + oc[2]*pa.stride[2]
			t := pa.s * (1 + 2*pos)
			fn(base+t*pa.dstr, base, pa.dstr, pa.n, t, pa.s)
			k += step
		}
		k -= points
	})
}
