package sz3

import (
	"testing"
	"testing/quick"

	"scdc/internal/grid"
)

// TestWalkerPartition: over all levels, the schedule visits every point
// except the origin exactly once.
func TestWalkerPartition(t *testing.T) {
	cases := [][]int{{8, 8, 8}, {7, 9, 5}, {16, 3, 10}, {1, 6, 6}, {33}, {5, 5}, {3, 4, 5, 6}, {2, 2, 2}, {1, 1, 9}}
	for _, dims := range cases {
		strides := grid.Strides(dims)
		n := 1
		for _, d := range dims {
			n *= d
		}
		seen := make([]int, n)
		forEachPoint(dims, strides, DefaultDirOrder(len(dims)), Levels(dims), func(pt *Point) {
			seen[pt.Idx]++
		})
		if seen[0] != 0 {
			t.Fatalf("dims=%v: origin visited by schedule", dims)
		}
		for idx := 1; idx < n; idx++ {
			if seen[idx] != 1 {
				t.Fatalf("dims=%v: point %d visited %d times", dims, idx, seen[idx])
			}
		}
	}
}

// TestWalkerKnownLattice: when a point is visited, every position its
// interpolation stencil can touch (t±s, t±3s along Dir) was either the
// origin or visited earlier — the "known lattice" invariant that makes
// compression and decompression consistent.
func TestWalkerKnownLattice(t *testing.T) {
	dims := []int{11, 13, 9}
	strides := grid.Strides(dims)
	n := dims[0] * dims[1] * dims[2]
	done := make([]bool, n)
	done[0] = true
	forEachPoint(dims, strides, DefaultDirOrder(3), Levels(dims), func(pt *Point) {
		for _, off := range []int{-3 * pt.S, -pt.S, pt.S, 3 * pt.S} {
			p := pt.T + off
			if p < 0 || p >= pt.N {
				continue
			}
			idx := pt.LineBase + p*pt.LineStrd
			if (p/pt.S)%2 == 0 && !done[idx] {
				t.Fatalf("point %d (t=%d s=%d dir=%d) reads unknown stencil position %d",
					pt.Idx, pt.T, pt.S, pt.Dir, idx)
			}
		}
		done[pt.Idx] = true
	})
}

// TestWalkerNeighborValidity: every QP neighbor was visited earlier in the
// same pass (same level, same Dir, same stride geometry).
func TestWalkerNeighborValidity(t *testing.T) {
	dims := []int{12, 10, 14}
	strides := grid.Strides(dims)
	n := dims[0] * dims[1] * dims[2]
	type meta struct {
		order      int
		level, dir int
	}
	visited := make([]meta, n)
	order := 0
	forEachPoint(dims, strides, DefaultDirOrder(3), Levels(dims), func(pt *Point) {
		order++
		check := func(nb int) {
			if nb < 0 {
				return
			}
			if nb >= n {
				t.Fatalf("neighbor %d out of range", nb)
			}
			m := visited[nb]
			if m.order == 0 {
				t.Fatalf("neighbor %d of point %d not yet visited", nb, pt.Idx)
			}
			if m.level != pt.Level || m.dir != pt.Dir {
				t.Fatalf("neighbor %d crosses passes: level %d/%d dir %d/%d",
					nb, m.level, pt.Level, m.dir, pt.Dir)
			}
		}
		check(pt.NB.Left)
		check(pt.NB.Top)
		check(pt.NB.TopLeft)
		check(pt.NB.Back)
		check(pt.NB.BackLeft)
		check(pt.NB.BackTop)
		check(pt.NB.BackTopLeft)
		visited[pt.Idx] = meta{order, pt.Level, pt.Dir}
	})
}

// TestWalkerLevelStrides: points at level l sit on the 2^(l-1) lattice
// with at least one odd multiple coordinate, and T is an odd multiple of S
// along Dir.
func TestWalkerLevelStrides(t *testing.T) {
	dims := []int{17, 12, 21}
	strides := grid.Strides(dims)
	coord := make([]int, 3)
	forEachPoint(dims, strides, DefaultDirOrder(3), Levels(dims), func(pt *Point) {
		if pt.S != 1<<(pt.Level-1) {
			t.Fatalf("level %d has stride %d", pt.Level, pt.S)
		}
		if pt.T%pt.S != 0 || (pt.T/pt.S)%2 != 1 {
			t.Fatalf("T=%d not an odd multiple of S=%d", pt.T, pt.S)
		}
		rem := pt.Idx
		for d := 0; d < 3; d++ {
			coord[d] = rem / strides[d]
			rem %= strides[d]
		}
		if coord[pt.Dir] != pt.T {
			t.Fatalf("coord along dir %d is %d, T=%d", pt.Dir, coord[pt.Dir], pt.T)
		}
		for d := 0; d < 3; d++ {
			if coord[d]%pt.S != 0 {
				t.Fatalf("level %d point %v off the lattice", pt.Level, coord)
			}
		}
	})
}

// TestQuickWalkerPartition property: the partition invariant holds for
// random small dims and any direction order permutation.
func TestQuickWalkerPartition(t *testing.T) {
	f := func(a, b, c uint8, flip bool) bool {
		dims := []int{int(a%7) + 1, int(b%7) + 1, int(c%7) + 1}
		order := DefaultDirOrder(3)
		if flip {
			order = []int{0, 1, 2}
		}
		strides := grid.Strides(dims)
		n := dims[0] * dims[1] * dims[2]
		seen := make([]int, n)
		forEachPoint(dims, strides, order, Levels(dims), func(pt *Point) {
			seen[pt.Idx]++
		})
		for idx := 1; idx < n; idx++ {
			if seen[idx] != 1 {
				return false
			}
		}
		return seen[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLevels(t *testing.T) {
	cases := map[string]struct {
		dims []int
		want int
	}{
		"single": {[]int{1, 1, 1}, 0},
		"two":    {[]int{2, 2, 2}, 1},
		"128":    {[]int{128, 1, 1}, 7},
		"129":    {[]int{129, 1, 1}, 8},
		"mixed":  {[]int{5, 64, 3}, 6},
	}
	for name, c := range cases {
		if got := Levels(c.dims); got != c.want {
			t.Errorf("%s: Levels(%v) = %d, want %d", name, c.dims, got, c.want)
		}
	}
}

func TestDefaultDirOrder(t *testing.T) {
	got := DefaultDirOrder(3)
	if got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("order = %v", got)
	}
}

// oracleSchedule independently re-derives the full multilevel visit
// order from the paper's schedule definition with plain nested loops —
// no pass structs, no shared geometry code — so walker regressions
// cannot hide behind their own abstractions: level L..1, directions in
// order skipping degenerate axes, orthogonal coordinates ascending
// lexicographically (slowest axis outermost) with step s on
// already-processed axes and 2s on pending ones, then t over ascending
// odd multiples of s.
func oracleSchedule(dims []int, orderFor func(level int) []int) []int {
	strides := grid.Strides(dims)
	nd := len(dims)
	var visits []int
	for level := Levels(dims); level >= 1; level-- {
		s := 1 << (level - 1)
		done := make([]bool, nd)
		for _, dir := range orderFor(level) {
			if dims[dir] <= 1 || s >= dims[dir] {
				done[dir] = true
				continue
			}
			var orth []int
			step := make([]int, nd)
			for a := 0; a < nd; a++ {
				if a == dir {
					continue
				}
				orth = append(orth, a)
				if done[a] {
					step[a] = s
				} else {
					step[a] = 2 * s
				}
			}
			var rec func(k, base int)
			rec = func(k, base int) {
				if k == len(orth) {
					for t := s; t < dims[dir]; t += 2 * s {
						visits = append(visits, base+t*strides[dir])
					}
					return
				}
				a := orth[k]
				for c := 0; c < dims[a]; c += step[a] {
					rec(k+1, base+c*strides[a])
				}
			}
			rec(0, 0)
			done[dir] = true
		}
	}
	return visits
}

// degenerateDims are the walker edge cases the interpolation kernels
// lean on: all-ones fields, single long axes (forcing deep levels with
// one-line passes), and 4D thin slabs mixing extent-1 axes with real
// ones.
var degenerateDims = [][]int{
	{1}, {1, 1}, {1, 1, 1}, {1, 1, 1, 1},
	{2}, {1025}, {1, 1, 513}, {513, 1, 1},
	{2, 9, 1, 33}, {64, 1, 1, 2}, {1, 3, 1, 3}, {2, 1, 2, 1},
}

// TestWalkScheduleOrderOracle pins the exact visit order of
// WalkSchedule against the independent oracle on degenerate dims, plus
// the partition count (every non-origin point exactly once).
func TestWalkScheduleOrderOracle(t *testing.T) {
	for _, dims := range degenerateDims {
		strides := grid.Strides(dims)
		orderFor := func(int) []int { return DefaultDirOrder(len(dims)) }
		var got []int
		WalkSchedule(dims, strides, Levels(dims), orderFor, func(pt *Point) {
			got = append(got, pt.Idx)
		})
		want := oracleSchedule(dims, orderFor)
		if len(got) != len(want) {
			t.Fatalf("dims=%v: walker visited %d points, oracle %d", dims, len(got), len(want))
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		if len(got) != n-1 {
			t.Fatalf("dims=%v: %d visits, want %d (all non-origin points)", dims, len(got), n-1)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dims=%v: visit %d is %d, oracle says %d", dims, i, got[i], want[i])
			}
		}
	}
}

// TestWalkScheduleOrderOracleQuick extends the order pin to random small
// dims in 1–4 dimensions with both direction orders.
func TestWalkScheduleOrderOracleQuick(t *testing.T) {
	f := func(a, b, c, d, ndB uint8, flip bool) bool {
		nd := int(ndB)%4 + 1
		dims := []int{int(a)%9 + 1, int(b)%9 + 1, int(c)%9 + 1, int(d)%9 + 1}[:nd]
		order := DefaultDirOrder(nd)
		if flip {
			for i, j := 0, nd-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		orderFor := func(int) []int { return order }
		strides := grid.Strides(dims)
		var got []int
		WalkSchedule(dims, strides, Levels(dims), orderFor, func(pt *Point) {
			got = append(got, pt.Idx)
		})
		want := oracleSchedule(dims, orderFor)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelsProperties pins Levels on degenerate shapes: zero only for
// all-ones dims, and otherwise the unique L with 2^(L-1) <= max(d-1) <
// 2^L — so the top level always has at least one non-degenerate pass.
func TestLevelsProperties(t *testing.T) {
	for _, dims := range degenerateDims {
		m := 0
		for _, d := range dims {
			if d-1 > m {
				m = d - 1
			}
		}
		got := Levels(dims)
		if m == 0 {
			if got != 0 {
				t.Fatalf("Levels(%v) = %d, want 0 for a single-point field", dims, got)
			}
			continue
		}
		if got < 1 || 1<<(got-1) > m || m >= 1<<got {
			t.Fatalf("Levels(%v) = %d does not bracket max extent-1 = %d", dims, got, m)
		}
		// The top level must produce at least one pass: stride 2^(L-1)
		// fits inside the longest axis.
		s := 1 << (got - 1)
		ok := false
		for _, d := range dims {
			if s < d {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("Levels(%v) = %d: top-level stride %d exceeds every axis", dims, got, s)
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestSampleLevelMatchesWalker pins the ordinal sampler to the walk it
// replaced in the QoZ tuner: for every level, direction order and step,
// SampleLevel visits exactly the points the reference walker keeps under
// a decim%step == 0 filter — same order, same index, same line geometry —
// on 1D–4D fields with extent-1, extent-2 and odd axes.
func TestSampleLevelMatchesWalker(t *testing.T) {
	type visit struct{ idx, base, strd, n, t, s int }
	cases := append([][]int{
		{33}, {64}, {5, 5}, {2, 17}, {31, 1}, {7, 9, 5}, {16, 3, 10}, {1, 6, 6},
		{2, 2, 2}, {33, 20, 17}, {3, 4, 5, 6}, {9, 1, 2, 13},
	}, degenerateDims...)
	for _, dims := range cases {
		strides := grid.Strides(dims)
		for level := 1; level <= Levels(dims)+1; level++ {
			for _, order := range permutations(len(dims)) {
				for _, step := range []int{1, 3, 23, 181} {
					var want, got []visit
					decim := 0
					WalkScheduleLevel(dims, strides, level, order, func(pt *Point) {
						decim++
						if decim%step == 0 {
							want = append(want, visit{pt.Idx, pt.LineBase, pt.LineStrd, pt.N, pt.T, pt.S})
						}
					})
					SampleLevel(dims, strides, level, order, step, func(idx, base, strd, n, t, s int) {
						got = append(got, visit{idx, base, strd, n, t, s})
					})
					if len(got) != len(want) {
						t.Fatalf("dims=%v level=%d order=%v step=%d: %d samples, walker keeps %d",
							dims, level, order, step, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("dims=%v level=%d order=%v step=%d: sample %d is %+v, walker says %+v",
								dims, level, order, step, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
