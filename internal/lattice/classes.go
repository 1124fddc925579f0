// Package lattice holds the parity-class multilevel schedule shared by
// the HPEZ and MGARD reimplementations.
//
// Unlike SZ3's sequential dimension sweeps, the schedule organizes one
// level's points into parity classes (odd multiples of the level stride
// s along exactly the axes in the class mask) processed in order of
// increasing popcount: face points first, then edge points, then body
// centers. Every class's interpolation neighbors (±s, ±3s along any odd
// axis) belong to a lower-popcount class or the previous level, so both
// sides of the stencil are always available — this is the
// multi-dimensional interpolation that lets HPEZ exploit cross-direction
// correlation (and why it shows the weakest index clustering, paper
// Section IV-B). Classes with equal popcount are ordered by ascending
// mask for determinism.
//
// A class is a rectangular strided sub-lattice, so it maps onto a
// core.Region whose axis-3 rows run along the field's fastest axis. The
// engines' row kernels and the QP kernels both sweep those rows; the
// per-point walker (walker.go) is the reference they are pinned against.
package lattice

import (
	"math/bits"

	"scdc/internal/core"
)

// classOrder returns the level's class masks in schedule order —
// ascending (popcount, mask) — skipping classes whose odd axes cannot
// host odd multiples of s.
func classOrder(dims []int, s int) []uint {
	nd := len(dims)
	nClasses := 1 << nd
	order := make([]uint, 0, nClasses-1)
	for pc := 1; pc <= nd; pc++ {
	masks:
		for m := uint(1); m < uint(nClasses); m++ {
			if bits.OnesCount(m) != pc {
				continue
			}
			for d := 0; d < nd; d++ {
				if m&(1<<uint(d)) != 0 && s >= dims[d] {
					continue masks
				}
			}
			order = append(order, m)
		}
	}
	return order
}

// Class is one parity class of one level: its region plus the field
// geometry a row kernel needs, in the region's axis numbering. Field
// axis d is region axis d+4-nd, so axis 3 is always the field's fastest
// axis and a region row is a run of class points along it; the leading
// padding axes of a field with fewer than four axes have extent 1, are
// never odd and carry no stride.
type Class struct {
	// Region is the class lattice: spacing 2s along every axis, origin s
	// on odd axes and 0 on even ones. Row-major region order is the
	// reference walker's visit order, and every QP neighbor of a class
	// point belongs to the same class.
	Region core.Region
	// S is the level stride, 2^(level-1).
	S int
	// N and Strd are the field extent and flat stride along each region
	// axis (1 and 0 on padding axes).
	N, Strd [4]int
	// Odd reports the region axes along which the class's coordinates are
	// odd multiples of S — its parity mask.
	Odd [4]bool
}

// Coord returns the field coordinate along region axis a of lattice
// position p.
//
//scdc:inline
func (c *Class) Coord(a, p int) int {
	t := 2 * c.S * p
	if c.Odd[a] {
		t += c.S
	}
	return t
}

// newClass resolves the geometry of class mask at the given level.
func newClass(dims, strides []int, level int, mask uint) Class {
	nd := len(dims)
	s := 1 << (level - 1)
	pad := 4 - nd
	leftAx, topAx, primAx := QPPlaneAxes(nd, mask)
	shift := func(axis int) int {
		if axis < 0 {
			return -1
		}
		return axis + pad
	}
	c := Class{S: s}
	rg := &c.Region
	rg.Left, rg.Top, rg.Back, rg.Level = shift(leftAx), shift(topAx), shift(primAx), level
	for a := 0; a < pad; a++ {
		rg.Ext[a], c.N[a] = 1, 1
	}
	for d := 0; d < nd; d++ {
		a := d + pad
		start := 0
		if mask&(1<<uint(d)) != 0 {
			start = s
			c.Odd[a] = true
		}
		c.N[a], c.Strd[a] = dims[d], strides[d]
		rg.Base += start * strides[d]
		rg.Ext[a] = (dims[d] - start + 2*s - 1) / (2 * s)
		rg.Strd[a] = 2 * s * strides[d]
	}
	return c
}

// Classes enumerates one level's classes in schedule order.
func Classes(dims, strides []int, level int) []Class {
	masks := classOrder(dims, 1<<(level-1))
	cls := make([]Class, len(masks))
	for i, m := range masks {
		cls[i] = newClass(dims, strides, level, m)
	}
	return cls
}

// QPPlaneAxes returns the two axes spanning the QP plane for a class: the
// two fastest axes excluding the class's primary interpolation direction
// (its fastest odd axis). Either return may be -1 when the field has too
// few axes. Within a class the lattice spacing is 2s along every axis, so
// both plane strides are 2s.
func QPPlaneAxes(nd int, mask uint) (left, top, primary int) {
	primary = -1
	for d := nd - 1; d >= 0; d-- {
		if mask&(1<<uint(d)) != 0 {
			primary = d
			break
		}
	}
	left, top = -1, -1
	for d := nd - 1; d >= 0; d-- {
		if d == primary {
			continue
		}
		if left == -1 {
			left = d
		} else if top == -1 {
			top = d
			break
		}
	}
	return left, top, primary
}
