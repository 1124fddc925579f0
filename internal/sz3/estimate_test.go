package sz3

import (
	"math"
	"testing"

	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/interp"
)

// smoothField: multilevel interpolation should be preferred.
func smoothField() *grid.Field {
	f := grid.MustNew(32, 32, 32)
	for x := 0; x < 32; x++ {
		for y := 0; y < 32; y++ {
			for z := 0; z < 32; z++ {
				f.Set(math.Sin(float64(x)/9)+math.Cos(float64(y)/7)+math.Sin(float64(z)/11), x, y, z)
			}
		}
	}
	return f
}

func TestChooseLorenzoSmooth(t *testing.T) {
	f := smoothField()
	if chooseLorenzo(f, f.Range()*1e-3, interp.Cubic) {
		t.Error("smooth field at loose bound chose Lorenzo")
	}
}

// TestChooseLorenzoSwitch uses the Miranda stand-in, whose ground truth
// (verified by compressing both ways in internal/inttest) is that
// interpolation wins at rel 1e-3 and Lorenzo wins at rel 1e-4 and below —
// the switch the paper describes in Section VI-C.
func TestChooseLorenzoSwitch(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{48, 64, 64}, 1)
	if chooseLorenzo(f, f.Range()*1e-3, interp.Cubic) {
		t.Error("Miranda at 1e-3 chose Lorenzo (interpolation is better there)")
	}
	if !chooseLorenzo(f, f.Range()*1e-5, interp.Cubic) {
		t.Error("Miranda at 1e-5 kept interpolation (Lorenzo is better there)")
	}
}

func TestChooseLorenzoSmallFields(t *testing.T) {
	// Tiny fields always use interpolation (not enough samples to judge).
	f := grid.MustNew(4, 4, 4)
	if chooseLorenzo(f, 1e-3, interp.Cubic) {
		t.Error("tiny field chose Lorenzo")
	}
	g := grid.MustNew(4096)
	if chooseLorenzo(g, 1e-3, interp.Cubic) {
		t.Error("1D field chose Lorenzo")
	}
}

func TestAxisLineBase(t *testing.T) {
	dims := []int{3, 4, 5}
	strides := grid.Strides(dims)
	// Lines along axis 2: line ordinal enumerates (x, y) row-major.
	if got := grid.LineBase(dims, strides, 2, 0); got != 0 {
		t.Fatalf("base(0) = %d", got)
	}
	if got := grid.LineBase(dims, strides, 2, 1); got != 5 { // (0,1,*)
		t.Fatalf("base(1) = %d", got)
	}
	if got := grid.LineBase(dims, strides, 2, 4); got != 20 { // (1,0,*)
		t.Fatalf("base(4) = %d", got)
	}
	// Lines along axis 0: ordinal enumerates (y, z).
	if got := grid.LineBase(dims, strides, 0, 7); got != 7 { // y=1,z=2 -> 1*5+2
		t.Fatalf("axis0 base(7) = %d", got)
	}
}
