package lattice

import (
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
)

// regionPoints enumerates a core.Region in row-major order, returning the
// flat index and axis positions for every point.
func regionPoints(rg core.Region) (idxs []int, poss [][4]int) {
	for p0 := 0; p0 < rg.Ext[0]; p0++ {
		for p1 := 0; p1 < rg.Ext[1]; p1++ {
			for p2 := 0; p2 < rg.Ext[2]; p2++ {
				for p3 := 0; p3 < rg.Ext[3]; p3++ {
					idx := rg.Base + p0*rg.Strd[0] + p1*rg.Strd[1] + p2*rg.Strd[2] + p3*rg.Strd[3]
					idxs = append(idxs, idx)
					poss = append(poss, [4]int{p0, p1, p2, p3})
				}
			}
		}
	}
	return idxs, poss
}

// TestClassRegionsMatchWalk pins the Classes regions against WalkClasses:
// per level the regions enumerate exactly the walker's points, in the
// walker's order, the region's Left/Top/Back axes reproduce the walker's
// QP neighborhoods, and the class geometry (Coord, Odd, N) reproduces the
// walker's coordinates and mask.
func TestClassRegionsMatchWalk(t *testing.T) {
	cases := [][]int{{8, 8, 8}, {7, 9, 5}, {16, 3, 10}, {1, 6, 6}, {33}, {5, 5}, {3, 4, 5, 6}, {2, 2}}
	for _, dims := range cases {
		strides := grid.Strides(dims)
		for level := 1; level <= 3; level++ {
			var wantIdx []int
			var wantNB []core.Neighborhood
			var wantPt []Point
			WalkClasses(dims, strides, level, func(pt *Point) {
				wantIdx = append(wantIdx, pt.Idx)
				wantNB = append(wantNB, pt.NB)
				wantPt = append(wantPt, *pt)
			})

			var gotIdx []int
			var gotNB []core.Neighborhood
			pad := 4 - len(dims)
			classes := Classes(dims, strides, level)
			for ci := range classes {
				cl := &classes[ci]
				rg := cl.Region
				if rg.Ext[3] < 1 || (len(dims) < 4 && rg.Ext[0] != 1) {
					t.Fatalf("dims=%v level=%d: region %+v is not right-aligned", dims, level, rg)
				}
				idxs, poss := regionPoints(rg)
				for i, idx := range idxs {
					want := wantPt[len(gotIdx)]
					if want.S != cl.S {
						t.Fatalf("dims=%v level=%d idx %d: class s %d, walker s %d", dims, level, idx, cl.S, want.S)
					}
					for a := 0; a < 4; a++ {
						wantC, wantN, wantOdd := 0, 1, false
						if a >= pad {
							wantC, wantN = want.Coord[a-pad], dims[a-pad]
							wantOdd = want.Mask&(1<<uint(a-pad)) != 0
						}
						if got := cl.Coord(a, poss[i][a]); got != wantC || cl.N[a] != wantN || cl.Odd[a] != wantOdd {
							t.Fatalf("dims=%v level=%d idx %d axis %d: coord %d n %d odd %v, walker %d %d %v",
								dims, level, idx, a, got, cl.N[a], cl.Odd[a], wantC, wantN, wantOdd)
						}
					}
					nb := core.Neighborhood{
						Level: rg.Level,
						Left:  -1, Top: -1, TopLeft: -1,
						Back: -1, BackLeft: -1, BackTop: -1, BackTopLeft: -1,
					}
					pos := poss[i]
					hasL := rg.Left >= 0 && pos[rg.Left] >= 1
					hasT := rg.Top >= 0 && pos[rg.Top] >= 1
					hasB := rg.Back >= 0 && pos[rg.Back] >= 1
					if hasL {
						nb.Left = idx - rg.Strd[rg.Left]
					}
					if hasT {
						nb.Top = idx - rg.Strd[rg.Top]
					}
					if hasL && hasT {
						nb.TopLeft = idx - rg.Strd[rg.Left] - rg.Strd[rg.Top]
					}
					if hasB {
						nb.Back = idx - rg.Strd[rg.Back]
						if hasL {
							nb.BackLeft = nb.Back - rg.Strd[rg.Left]
						}
						if hasT {
							nb.BackTop = nb.Back - rg.Strd[rg.Top]
						}
						if hasL && hasT {
							nb.BackTopLeft = nb.Back - rg.Strd[rg.Left] - rg.Strd[rg.Top]
						}
					}
					gotIdx = append(gotIdx, idx)
					gotNB = append(gotNB, nb)
				}
			}

			if len(gotIdx) != len(wantIdx) {
				t.Fatalf("dims=%v level=%d: regions visit %d points, walker visits %d",
					dims, level, len(gotIdx), len(wantIdx))
			}
			for i := range wantIdx {
				if gotIdx[i] != wantIdx[i] {
					t.Fatalf("dims=%v level=%d point %d: region idx %d, walker idx %d",
						dims, level, i, gotIdx[i], wantIdx[i])
				}
				if gotNB[i] != wantNB[i] {
					t.Fatalf("dims=%v level=%d idx %d: region NB %+v, walker NB %+v",
						dims, level, wantIdx[i], gotNB[i], wantNB[i])
				}
			}
		}
	}
}
