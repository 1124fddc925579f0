package sz3

import (
	"math"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
)

// TestTuneLevelBounds pins the helper's contract with a trial whose cost
// is steered by the test: every candidate sees a pristine copy of the
// centered crop and the bounds of its own scaling (capped at the crop's
// level count), and the plan's bounds are filled from the cheapest one.
func TestTuneLevelBounds(t *testing.T) {
	f := grid.MustNew(70, 40, 9)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	crop := CenterCrop(f, 32)
	const eb = 0.5
	for cheapest, want := range ebCandidates {
		ebs := make([]float64, 6)
		call := 0
		alpha, beta := TuneLevelBounds(f, ebs, eb, func(sw *core.Sweep, dims []int, trialEBs []float64) {
			data, q := sw.Data, sw.Sym
			if len(dims) != 3 || dims[0] != 32 || dims[1] != 32 || dims[2] != 9 {
				t.Fatalf("crop dims %v", dims)
			}
			if len(trialEBs) != 5 { // Levels of a 32-wide crop, below the plan's 6
				t.Fatalf("trial has %d levels, want 5", len(trialEBs))
			}
			for l, got := range trialEBs {
				c := ebCandidates[call]
				if w := math.Max(eb/math.Pow(c[0], float64(l)), eb/c[1]); got != w {
					t.Fatalf("candidate %d level %d: bound %v, want %v", call, l+1, got, w)
				}
			}
			for i := range data {
				if data[i] != crop.Data[i] {
					t.Fatalf("candidate %d: crop not restored at %d", call, i)
				}
				data[i] = -1 // a real trial overwrites data with decompressed values
				q[i] = 0
			}
			// One literal is 8 bytes; the constant q costs the same each time.
			if call != cheapest {
				sw.Lits = make([]float64, 10)
			}
			call++
		})
		if call != len(ebCandidates) {
			t.Fatalf("%d trials, want %d", call, len(ebCandidates))
		}
		if alpha != want[0] || beta != want[1] {
			t.Errorf("cheapest=%d: chose (%v, %v), want %v", cheapest, alpha, beta, want)
		}
		for l, got := range ebs {
			if w := math.Max(eb/math.Pow(want[0], float64(l)), eb/want[1]); got != w {
				t.Errorf("cheapest=%d: plan level %d bound %v, want %v", cheapest, l+1, got, w)
			}
		}
	}
}
