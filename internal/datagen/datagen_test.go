package datagen

import (
	"math"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/sz3"
)

func TestDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		a := MustGenerate(spec.Dataset, 0, nil, 7)
		b := MustGenerate(spec.Dataset, 0, nil, 7)
		if !a.Equal(b) {
			t.Errorf("%v: generation not deterministic", spec.Dataset)
		}
	}
}

func TestSeedAndFieldVary(t *testing.T) {
	a := MustGenerate(Miranda, 0, nil, 1)
	b := MustGenerate(Miranda, 0, nil, 2)
	c := MustGenerate(Miranda, 1, nil, 1)
	if a.Equal(b) {
		t.Error("different seeds produced identical fields")
	}
	if a.Equal(c) {
		t.Error("different fields produced identical data")
	}
}

func TestAllFieldsFinite(t *testing.T) {
	for _, spec := range Specs() {
		for field := 0; field < minInt(spec.NumFields, 3); field++ {
			f := MustGenerate(spec.Dataset, field, nil, 3)
			if f.Len() == 0 {
				t.Fatalf("%v: empty field", spec.Dataset)
			}
			for i, v := range f.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v field %d: non-finite value at %d", spec.Dataset, field, i)
				}
			}
			if f.Range() == 0 {
				t.Errorf("%v field %d: constant field", spec.Dataset, field)
			}
		}
	}
}

func TestSpecsConsistent(t *testing.T) {
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("want 7 datasets, got %d", len(specs))
	}
	for _, s := range specs {
		if s.Name == "" || s.NumFields < 1 || len(s.PaperDims) < 3 || len(s.Dims) != 3 {
			t.Errorf("bad spec: %+v", s)
		}
		if s.Dataset.String() != s.Name {
			t.Errorf("name mismatch: %v vs %s", s.Dataset, s.Name)
		}
		if s.Dataset.Spec().Name != s.Name {
			t.Errorf("Spec() lookup broken for %s", s.Name)
		}
	}
}

func TestCustomDims(t *testing.T) {
	f := MustGenerate(SegSalt, 0, []int{20, 25, 30}, 1)
	d := f.Dims()
	if d[0] != 20 || d[1] != 25 || d[2] != 30 {
		t.Fatalf("dims = %v", d)
	}
}

func TestRTMTimeCoherence(t *testing.T) {
	// Consecutive RTM slices share the earth model and differ only in the
	// wavefront: their difference should be much smaller than the fields.
	a := MustGenerate(RTM, 10, []int{48, 48, 32}, 1)
	b := MustGenerate(RTM, 11, []int{48, 48, 32}, 1)
	diff, rng := 0.0, a.Range()
	for i := range a.Data {
		diff += math.Abs(a.Data[i] - b.Data[i])
	}
	diff /= float64(a.Len())
	if diff > rng/4 {
		t.Errorf("consecutive RTM slices uncorrelated: mean diff %g of range %g", diff, rng)
	}
}

// TestFieldsAreCompressible is the key fidelity property: the synthetic
// fields must be smooth enough for interpolation-based compression to
// achieve scientific-data-like ratios, with spatially correlated
// quantization indices (entropy well below the iid bound).
func TestFieldsAreCompressible(t *testing.T) {
	for _, ds := range []Dataset{Miranda, SegSalt, CESM} {
		f := MustGenerate(ds, 0, []int{48, 64, 64}, 5)
		eb := f.Range() * 1e-4
		tr := &sz3.Trace{}
		opts := sz3.DefaultOptions(eb)
		opts.Choice = sz3.ChoiceInterp
		opts.Trace = tr
		payload, err := sz3.Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		cr := float64(f.Len()*8) / float64(len(payload))
		h := entropy.Shannon(tr.Q)
		t.Logf("%v: CR=%.1f H(Q)=%.2f", ds, cr, h)
		if cr < 8 {
			t.Errorf("%v: implausibly low compression ratio %.1f", ds, cr)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestGenerateRejectsInvalidInput: Generate must return an error — not
// panic — for unknown datasets and bad geometry, so callers driven by
// untrusted flags (the CLIs) can report cleanly.
func TestGenerateRejectsInvalidInput(t *testing.T) {
	if _, err := Generate(Dataset(99), 0, []int{4, 4}, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Generate(Miranda, 0, []int{0, 4}, 1); err == nil {
		t.Fatal("zero extent accepted")
	}
	if _, err := Generate(Miranda, 0, []int{4, 4, 4, 4, 4}, 1); err == nil {
		t.Fatal("5D dims accepted")
	}
	// A 4D grid is valid, but the generators fill only three axes: the
	// rest of the field would stay 0.
	if _, err := Generate(Miranda, 0, []int{3, 4, 5, 6}, 1); err == nil {
		t.Fatal("4D dims accepted")
	}
	if _, ok := SpecOf(Dataset(99)); ok {
		t.Fatal("SpecOf reported unknown dataset as known")
	}
	if s, ok := SpecOf(RTM); !ok || s.Dataset != RTM {
		t.Fatal("SpecOf failed for a known dataset")
	}
}
