// Package datagen synthesizes deterministic stand-ins for the paper's
// seven evaluation datasets (Table III). The real datasets total ~680 GB
// and are not redistributable here; each generator reproduces the
// statistical structure that the compression pipeline is sensitive to —
// a power-law-correlated smooth background plus the domain's coherent
// features (shear layers, vortices, salt bodies, convective cells, flame
// fronts, zonal bands, wavefronts). Interpolation residuals on such fields
// show the same spatially coherent quantization-index clustering the
// paper characterizes in Section IV, which is the property QP exploits.
//
// All generators are deterministic in (dataset, field, dims, seed).
package datagen

import (
	"fmt"
	"math/rand"

	"scdc/internal/grid"
)

// Dataset identifies one of the paper's benchmark datasets.
type Dataset int

const (
	// Miranda is the LLNL large-turbulence (hydrodynamics) simulation.
	Miranda Dataset = iota
	// Hurricane is the Hurricane Isabel weather simulation.
	Hurricane
	// SegSalt is the SEG/EAGE salt and overthrust geology model.
	SegSalt
	// Scale is the SCALE-RM weather model.
	Scale
	// S3D is the S3D combustion (chemistry) simulation, double precision.
	S3D
	// CESM is the CESM-ATM climate model (quasi-2D: 26 thin levels).
	CESM
	// RTM is the reverse-time-migration seismic application (4D; handled
	// as independent 3D time slices, as in the paper's Section VI-E).
	RTM
)

// String implements fmt.Stringer.
func (d Dataset) String() string {
	switch d {
	case Miranda:
		return "Miranda"
	case Hurricane:
		return "Hurricane"
	case SegSalt:
		return "SegSalt"
	case Scale:
		return "SCALE"
	case S3D:
		return "S3D"
	case CESM:
		return "CESM-3D"
	case RTM:
		return "RTM"
	default:
		return fmt.Sprintf("dataset(%d)", int(d))
	}
}

// Spec describes a dataset: the paper's full-scale geometry and the
// reduced geometry used by this repository's experiments.
type Spec struct {
	Dataset    Dataset
	Name       string
	Domain     string
	NumFields  int
	PaperDims  []int
	PaperBytes int64
	// Dims is the reduced geometry (≈1M points) used by default here.
	Dims []int
	// Float32 reports whether the paper stores this dataset in single
	// precision (bit-rate uses 32 bits/sample instead of 64).
	Float32 bool
}

// Specs lists all seven datasets (paper Table III).
func Specs() []Spec {
	return []Spec{
		{Miranda, "Miranda", "hydrodynamics", 7, []int{256, 384, 384}, 1052770304, []int{64, 96, 96}, true},
		{Hurricane, "Hurricane", "weather", 13, []int{100, 500, 500}, 1299999744, []int{50, 125, 125}, true},
		{SegSalt, "SegSalt", "geology", 3, []int{1008, 1008, 352}, 4284481536, []int{126, 126, 88}, true},
		{Scale, "SCALE", "weather", 12, []int{98, 1200, 1200}, 6774620160, []int{49, 150, 150}, true},
		{S3D, "S3D", "chemistry", 11, []int{500, 500, 500}, 11000000000, []int{100, 100, 100}, false},
		{CESM, "CESM-3D", "climate", 33, []int{26, 1800, 3600}, 22239360000, []int{26, 180, 360}, true},
		{RTM, "RTM", "seismic", 1, []int{3600, 449, 449, 235}, 682187882400, []int{112, 112, 59}, true},
	}
}

// SpecOf returns the spec for one dataset, reporting whether the dataset
// is known.
func SpecOf(d Dataset) (Spec, bool) {
	for _, s := range Specs() {
		if s.Dataset == d {
			return s, true
		}
	}
	return Spec{}, false
}

// Spec returns the spec for one dataset. It panics on an unknown dataset;
// callers with untrusted input should use SpecOf.
func (d Dataset) Spec() Spec {
	s, ok := SpecOf(d)
	if !ok {
		panic(fmt.Sprintf("datagen: unknown dataset %d", int(d)))
	}
	return s
}

// Generate synthesizes field number field of the dataset at the given
// 1–3 dims (nil selects the spec's reduced dims). For RTM, field is the
// time step and controls the wavefront radius; RTM's fourth axis is
// time, so no dataset takes 4D dims.
func Generate(d Dataset, field int, dims []int, seed int64) (*grid.Field, error) {
	spec, ok := SpecOf(d)
	if !ok {
		return nil, fmt.Errorf("datagen: unknown dataset %d", int(d))
	}
	if dims == nil {
		dims = spec.Dims
	}
	if len(dims) > 3 {
		return nil, fmt.Errorf("datagen: %d-D dims %v: fields have at most 3 axes", len(dims), dims)
	}
	f, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(d)*101 + int64(field)))

	switch d {
	case Miranda:
		genMiranda(f, field, rng)
	case Hurricane:
		genHurricane(f, field, rng)
	case SegSalt:
		genSegSalt(f, field, rng)
	case Scale:
		genScale(f, field, rng)
	case S3D:
		genS3D(f, field, rng)
	case CESM:
		genCESM(f, field, rng)
	case RTM:
		genRTM(f, field, rng)
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %d", int(d))
	}
	return f, nil
}

// MustGenerate is Generate but panics on error; for tests and benches
// where dims are known-valid.
func MustGenerate(d Dataset, field int, dims []int, seed int64) *grid.Field {
	f, err := Generate(d, field, dims, seed)
	if err != nil {
		panic(err)
	}
	return f
}
