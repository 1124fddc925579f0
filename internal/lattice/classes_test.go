package lattice

import (
	"math/bits"
	"testing"
	"testing/quick"

	"scdc/internal/grid"
)

// TestPartition: across one level, the classes exactly cover the fine
// lattice points (multiples of s with at least one odd multiple), each
// visited exactly once.
func TestPartition(t *testing.T) {
	cases := [][]int{{8, 8, 8}, {7, 9, 5}, {16, 3, 10}, {1, 6, 6}, {33}, {5, 5}, {3, 4, 5, 6}}
	for _, dims := range cases {
		strides := grid.Strides(dims)
		n := 1
		for _, d := range dims {
			n *= d
		}
		for level := 1; level <= 3; level++ {
			s := 1 << (level - 1)
			seen := make([]int, n)
			WalkClasses(dims, strides, level, func(pt *Point) {
				seen[pt.Idx]++
			})
			// Expected: points whose every coord is a multiple of s, with
			// at least one odd multiple.
			coord := make([]int, len(dims))
			for idx := 0; idx < n; idx++ {
				rem := idx
				for d := range dims {
					coord[d] = rem / strides[d]
					rem %= strides[d]
				}
				want := 0
				onLattice, anyOdd := true, false
				for _, c := range coord {
					if c%s != 0 {
						onLattice = false
						break
					}
					if (c/s)%2 == 1 {
						anyOdd = true
					}
				}
				if onLattice && anyOdd {
					want = 1
				}
				if seen[idx] != want {
					t.Fatalf("dims=%v level=%d idx=%d coord=%v: visited %d, want %d",
						dims, level, idx, coord, seen[idx], want)
				}
			}
		}
	}
}

// TestClassOrdering: lower-popcount classes come first, so every stencil
// neighbor of a point was visited earlier (or belongs to a coarser level).
func TestClassOrdering(t *testing.T) {
	dims := []int{9, 9, 9}
	strides := grid.Strides(dims)
	var lastPop int
	WalkClasses(dims, strides, 1, func(pt *Point) {
		pop := bits.OnesCount(pt.Mask)
		if pop < lastPop {
			t.Fatalf("class popcount decreased: %d after %d", pop, lastPop)
		}
		lastPop = pop
	})
}

// TestNeighborhoodValidity: every QP neighbor index is in range, was
// visited earlier, and belongs to the same class.
func TestNeighborhoodValidity(t *testing.T) {
	dims := []int{10, 12, 14}
	strides := grid.Strides(dims)
	n := dims[0] * dims[1] * dims[2]
	for level := 1; level <= 2; level++ {
		visited := make([]uint, n)
		order := 0
		classOf := make(map[int]uint)
		WalkClasses(dims, strides, level, func(pt *Point) {
			order++
			check := func(nb int) {
				if nb < 0 {
					return
				}
				if nb >= n {
					t.Fatalf("neighbor %d out of range", nb)
				}
				if visited[nb] == 0 {
					t.Fatalf("level %d: neighbor %d of %d not yet visited", level, nb, pt.Idx)
				}
				if classOf[nb] != pt.Mask {
					t.Fatalf("neighbor %d crosses classes: %b vs %b", nb, classOf[nb], pt.Mask)
				}
			}
			check(pt.NB.Left)
			check(pt.NB.Top)
			check(pt.NB.TopLeft)
			check(pt.NB.Back)
			check(pt.NB.BackLeft)
			check(pt.NB.BackTop)
			check(pt.NB.BackTopLeft)
			visited[pt.Idx] = uint(order)
			classOf[pt.Idx] = pt.Mask
		})
	}
}

// TestQuickPartition property: the partition invariant holds for random
// small dims.
func TestQuickPartition(t *testing.T) {
	f := func(a, b, c uint8) bool {
		dims := []int{int(a%6) + 1, int(b%6) + 1, int(c%6) + 1}
		strides := grid.Strides(dims)
		n := dims[0] * dims[1] * dims[2]
		seen := make([]int, n)
		WalkClasses(dims, strides, 1, func(pt *Point) { seen[pt.Idx]++ })
		for idx, v := range seen {
			x, y, z := idx/strides[0], (idx/strides[1])%dims[1], idx%dims[2]
			want := 0
			if x%2 == 1 || y%2 == 1 || z%2 == 1 {
				want = 1
			}
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQPPlaneAxesLowDims(t *testing.T) {
	// 2D, class {y}: primary y (axis 1), plane has only axis 0.
	left, top, prim := QPPlaneAxes(2, 0b10)
	if prim != 1 || left != 0 || top != -1 {
		t.Fatalf("2D: left=%d top=%d prim=%d", left, top, prim)
	}
	// 4D, class {w}: plane axes are the two fastest others.
	left, top, prim = QPPlaneAxes(4, 0b1000)
	if prim != 3 || left != 2 || top != 1 {
		t.Fatalf("4D: left=%d top=%d prim=%d", left, top, prim)
	}
}

// TestTapsLeaveClass: an interpolation tap of a class point — the point
// at ±s or ±3s along any odd axis of its class — flips that axis's
// parity, so it never lies in the point's own class, and it lies in an
// earlier class of the level or on a coarser level. The HPEZ kernel
// evaluates a whole chunk's taps before writing any of its points, which
// is valid only because of the first half; the sweep order rests on the
// second.
func TestTapsLeaveClass(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {9}, {33},
		{1, 7}, {5, 5}, {16, 9}, {2, 33},
		{2, 3, 4}, {7, 9, 5}, {8, 8, 8}, {1, 6, 6},
		{2, 2, 2, 2}, {3, 4, 5, 6}, {5, 1, 3, 7},
	}
	for _, dims := range shapes {
		strides := grid.Strides(dims)
		n, maxDim := 1, 0
		for _, d := range dims {
			n *= d
			maxDim = max(maxDim, d)
		}
		for level := 1; 1<<(level-1) < maxDim; level++ {
			s := 1 << (level - 1)
			classes := Classes(dims, strides, level)
			owner := make([]int, n) // 1 + class index at this level, 0 off the level
			for ci, cl := range classes {
				idxs, _ := regionPoints(cl.Region)
				for _, i := range idxs {
					owner[i] = ci + 1
				}
			}
			for ci, cl := range classes {
				idxs, poss := regionPoints(cl.Region)
				for j, idx := range idxs {
					for a := 0; a < 4; a++ {
						if !cl.Odd[a] {
							continue
						}
						c := cl.Coord(a, poss[j][a])
						for _, off := range []int{-3 * s, -s, s, 3 * s} {
							if c+off < 0 || c+off >= cl.N[a] {
								continue
							}
							if o := owner[idx+off*cl.Strd[a]]; o >= ci+1 {
								t.Fatalf("dims=%v level=%d class %d: tap %+d along axis %d of point %d lies in class %d",
									dims, level, ci, off, a, idx, o-1)
							}
						}
					}
				}
			}
		}
	}
}
