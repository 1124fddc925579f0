// Package datasets synthesizes the benchmark fields used throughout this
// repository's examples and experiments: deterministic stand-ins for the
// seven datasets of the paper's Table III (Miranda, Hurricane, SegSalt,
// SCALE, S3D, CESM-3D, RTM). See DESIGN.md for the substitution rationale.
package datasets

import (
	"fmt"

	"scdc/internal/datagen"
)

// Info describes one benchmark dataset.
type Info struct {
	// Name is the dataset name as used in the paper ("Miranda", ...).
	Name string
	// Domain is the scientific domain.
	Domain string
	// NumFields is the number of fields the paper's dataset carries.
	NumFields int
	// PaperDims is the full-scale geometry evaluated in the paper.
	PaperDims []int
	// Dims is the reduced geometry synthesized by default here.
	Dims []int
	// Float32 reports single-precision storage in the paper (bit-rate
	// uses 32 bits/sample instead of 64).
	Float32 bool
}

// List enumerates all seven datasets.
func List() []Info {
	specs := datagen.Specs()
	out := make([]Info, len(specs))
	for i, s := range specs {
		out[i] = Info{
			Name:      s.Name,
			Domain:    s.Domain,
			NumFields: s.NumFields,
			PaperDims: append([]int(nil), s.PaperDims...),
			Dims:      append([]int(nil), s.Dims...),
			Float32:   s.Float32,
		}
	}
	return out
}

// Generate synthesizes one field of the named dataset. dims has 1–3
// axes, or is nil to select the reduced default geometry; field selects
// the variable (or, for RTM, the time step). The result is row-major
// with the first dim slowest.
func Generate(name string, field int, dims []int, seed int64) ([]float64, []int, error) {
	for _, s := range datagen.Specs() {
		if s.Name == name {
			f, err := datagen.Generate(s.Dataset, field, dims, seed)
			if err != nil {
				return nil, nil, err
			}
			return f.Data, f.Dims(), nil
		}
	}
	return nil, nil, fmt.Errorf("datasets: unknown dataset %q", name)
}
