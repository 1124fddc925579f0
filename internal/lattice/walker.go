package lattice

import "scdc/internal/core"

// This file is the reference per-point class walker. It has no non-test
// caller: the engines sweep Classes with row kernels, and the walker
// stays (exported, because the engines' differential tests live in their
// own packages) as the visit order and QP neighborhood those kernels and
// core.Region sweeps are pinned against — TestClassRegionsMatchWalk here,
// TestLatticeKernelsMatchWalker and FuzzLatticeKernelDifferential in
// internal/hpez and internal/mgard.

// Point describes one data point visited by the parity-class multilevel
// schedule shared by the HPEZ and MGARD reimplementations.
type Point struct {
	Idx   int    // flat index
	Level int    // 1-based level, stride 2^(level-1)
	S     int    // level stride
	Mask  uint   // parity class: bit d set when the coord along axis d is an odd multiple of S
	Coord [4]int // coordinates
	NB    core.Neighborhood
}

// WalkClasses visits one level's points class by class in schedule
// order (see the package comment), row-major within a class.
func WalkClasses(dims, strides []int, level int, fn func(pt *Point)) {
	s := 1 << (level - 1)
	var pt Point
	for _, mask := range classOrder(dims, s) {
		walkClass(dims, strides, level, s, mask, &pt, fn)
	}
}

func walkClass(dims, strides []int, level, s int, mask uint, pt *Point, fn func(pt *Point)) {
	nd := len(dims)
	leftAx, topAx, primAx := QPPlaneAxes(nd, mask)

	var leftOff, topOff, backOff int
	if leftAx >= 0 {
		leftOff = 2 * s * strides[leftAx]
	}
	if topAx >= 0 {
		topOff = 2 * s * strides[topAx]
	}
	if primAx >= 0 {
		backOff = 2 * s * strides[primAx]
	}

	// Per-axis start and step.
	var start, step, ext [4]int
	for d := 0; d < nd; d++ {
		if mask&(1<<uint(d)) != 0 {
			start[d], step[d] = s, 2*s
		} else {
			start[d], step[d] = 0, 2*s
		}
		ext[d] = dims[d]
	}
	for d := nd; d < 4; d++ {
		start[d], step[d], ext[d] = 0, 1, 1
	}

	var strd [4]int
	for d := 0; d < nd; d++ {
		strd[d] = strides[d]
	}

	for c0 := start[0]; c0 < ext[0]; c0 += step[0] {
		for c1 := start[1]; c1 < ext[1]; c1 += step[1] {
			for c2 := start[2]; c2 < ext[2]; c2 += step[2] {
				for c3 := start[3]; c3 < ext[3]; c3 += step[3] {
					var coord [4]int
					coord[0], coord[1], coord[2], coord[3] = c0, c1, c2, c3
					idx := c0*strd[0] + c1*strd[1] + c2*strd[2] + c3*strd[3]
					nb := core.Neighborhood{
						Level: level,
						Left:  -1, Top: -1, TopLeft: -1,
						Back: -1, BackLeft: -1, BackTop: -1, BackTopLeft: -1,
					}
					hasLeft := leftAx >= 0 && coord[leftAx] >= start[leftAx]+2*s
					hasTop := topAx >= 0 && coord[topAx] >= start[topAx]+2*s
					hasBack := primAx >= 0 && coord[primAx] >= start[primAx]+2*s
					if hasLeft {
						nb.Left = idx - leftOff
					}
					if hasTop {
						nb.Top = idx - topOff
					}
					if hasLeft && hasTop {
						nb.TopLeft = idx - leftOff - topOff
					}
					if hasBack {
						nb.Back = idx - backOff
						if hasLeft {
							nb.BackLeft = nb.Back - leftOff
						}
						if hasTop {
							nb.BackTop = nb.Back - topOff
						}
						if hasLeft && hasTop {
							nb.BackTopLeft = nb.Back - leftOff - topOff
						}
					}
					pt.Idx = idx
					pt.Level = level
					pt.S = s
					pt.Mask = mask
					pt.Coord = coord
					pt.NB = nb
					fn(pt)
				}
			}
		}
	}
}
