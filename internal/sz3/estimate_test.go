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

// refSampledLorenzoCost is sampledLorenzoCost as it was before the
// estimator called lorenzo: the same lattice, with the stencil written
// inline and its 3D terms added fastest axis first.
func refSampledLorenzoCost(f *grid.Field, eb float64) float64 {
	dims := f.Dims()
	nd := len(dims)
	d := f.Data
	st := grid.Strides(dims)
	sum, cnt := 0.0, 0
	var walk func(axis, base int)
	walk = func(axis, base int) {
		if axis == nd {
			var p float64
			s1, s2 := st[nd-1], st[nd-2]
			if nd == 2 {
				p = d[base-s1] + d[base-s2] - d[base-s1-s2]
			} else {
				s3 := st[nd-3]
				p = d[base-s1] + d[base-s2] + d[base-s3] -
					d[base-s1-s2] - d[base-s1-s3] - d[base-s2-s3] +
					d[base-s1-s2-s3]
			}
			sum += BitCostNoisy(d[base]-p, eb, lorenzoNoise)
			cnt++
			return
		}
		for c := 1; c < dims[axis]; c += dims[axis]/17 + 1 {
			walk(axis+1, base+c*st[axis])
		}
	}
	walk(0, 0)
	return sum / float64(cnt)
}

// goldenSynth and its variants rebuild the fields of the golden corpus's
// SZ3 Lorenzo-mode pins (cmd/golden).
func goldenSynth(dims ...int) *grid.Field {
	f := grid.MustNew(dims...)
	for i := range f.Data {
		x := float64(i)
		f.Data[i] = math.Sin(x/9.7) + 0.25*math.Cos(x/2.3) + x/(512+x)
	}
	return f
}

func goldenSpiky(dims ...int) *grid.Field {
	f := goldenSynth(dims...)
	for i := 249; i < len(f.Data); i += 499 {
		f.Data[i] += 100
	}
	return f
}

// TestLorenzoCostMatchesReference: routing the mode estimate's Lorenzo
// stencil through lorenzo moves its cost by rounding only and flips no
// decision, on the TestChooseLorenzo* fields, the fields of the Lorenzo
// pins and the sz3_smooth benchmark field.
func TestLorenzoCostMatchesReference(t *testing.T) {
	type tc struct {
		name string
		f    *grid.Field
		eb   float64
	}
	miranda := datagen.MustGenerate(datagen.Miranda, 0, []int{48, 64, 64}, 1)
	cases := []tc{
		{"smooth", smoothField(), smoothField().Range() * 1e-3},
		{"miranda/1e-3", miranda, miranda.Range() * 1e-3},
		{"miranda/1e-5", miranda, miranda.Range() * 1e-5},
		{"golden/3d", goldenSynth(16, 16, 16), 1e-3},
		{"golden/4d", goldenSynth(2, 12, 16, 16), 1e-3},
		{"golden/spiky", goldenSpiky(16, 16, 16), 1e-3},
		{"golden/4d/1e-4", goldenSynth(2, 12, 16, 16), 1e-4},
		{"synth/2d", synth(96, 80), 1e-5},
	}
	if !testing.Short() {
		smooth := datagen.MustGenerate(datagen.Miranda, 0, []int{112, 160, 160}, 1)
		cases = append(cases, tc{"sz3_smooth", smooth, smooth.Range() * 1e-4})
	}
	for _, c := range cases {
		got, want := sampledLorenzoCost(c.f, c.eb), refSampledLorenzoCost(c.f, c.eb)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("%s: cost %.17g, reference %.17g (relative difference %.3g)", c.name, got, want, rel)
		}
		ic := sampledInterpCost(c.f, c.eb, interp.Cubic)
		if chooseLorenzo(c.f, c.eb, interp.Cubic) != (want < ic*0.95) {
			t.Errorf("%s: mode decision differs from the reference's", c.name)
		}
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
