package inttest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scdc/internal/core"
	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/hpez"
	"scdc/internal/mgard"
	"scdc/internal/obs"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
)

// qpEngine runs one engine, or SZ3 with one predictor, on explicit
// shared options.
type qpEngine struct {
	name       string
	compress   func(f *grid.Field, b core.Backend, eb float64) ([]byte, error)
	decompress func(payload []byte, dims []int) (*grid.Field, error)
}

var qpEngines = []qpEngine{
	{"sz3-interp", func(f *grid.Field, b core.Backend, eb float64) ([]byte, error) {
		o := sz3.DefaultOptions(eb)
		o.Backend, o.Choice = b, sz3.ChoiceInterp
		return sz3.Compress(f, o)
	}, sz3.Decompress},
	{"sz3-lorenzo", func(f *grid.Field, b core.Backend, eb float64) ([]byte, error) {
		o := sz3.DefaultOptions(eb)
		o.Backend, o.Choice = b, sz3.ChoiceLorenzo
		return sz3.Compress(f, o)
	}, sz3.Decompress},
	{"qoz", func(f *grid.Field, b core.Backend, eb float64) ([]byte, error) {
		o := qoz.DefaultOptions(eb)
		o.Backend = b
		return qoz.Compress(f, o)
	}, qoz.Decompress},
	{"hpez", func(f *grid.Field, b core.Backend, eb float64) ([]byte, error) {
		o := hpez.DefaultOptions(eb)
		o.Backend = b
		return hpez.Compress(f, o)
	}, hpez.Decompress},
	{"mgard", func(f *grid.Field, b core.Backend, eb float64) ([]byte, error) {
		o := mgard.DefaultOptions(eb)
		o.Backend = b
		return mgard.Compress(f, o)
	}, mgard.Decompress},
}

// qpField returns a field of dims: a smooth sum of per-axis waves, or,
// literal-heavy, the same field with a third of its points thrown far
// outside any radius.
func qpField(dims []int, literals bool, seed int64) *grid.Field {
	f := grid.MustNew(dims...)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		v, rest := 0.0, i
		for k := len(dims) - 1; k >= 0; k-- {
			v += math.Sin(float64(rest%dims[k])*0.37 + float64(k))
			rest /= dims[k]
		}
		if literals && rng.Intn(3) == 0 {
			v += rng.NormFloat64() * 1e6
		}
		f.Data[i] = v
	}
	return f
}

// TestQPInPlaceMatchesTwoArray drives the in-place QP compressor through
// every engine (SZ3 with both predictors) over every (Mode, Cond) pair
// and MaxLevel 0-2, with the geometry (1D-4D, extent-1 axes), the field
// (smooth, literal-heavy) and the radius (2, 2^15, 2^30) rotating across
// the cells. In every cell:
//
//   - Trace.Q holds the symbols of the same call with QP off, recovered
//     from the transformed array, and Trace.QP differs from it at exactly
//     Trace.Compensated points;
//   - the huffman span prices the original symbols as Analyze counts
//     them (est_bytes_q, entropy_q_bits to the last bit), and the QP ones
//     as Analyze counts Trace.QP;
//   - a call that drops QP writes the QP-off stream byte for byte, and
//     every stream decodes to the QP-off reconstruction.
func TestQPInPlaceMatchesTwoArray(t *testing.T) {
	dimsList := [][]int{{300}, {17, 23}, {1, 19, 21}, {9, 10, 11}, {3, 1, 9, 10}, {3, 4, 5, 6}}
	radii := []int32{2, 1 << 15, 1 << 30}
	cell, dropped := 0, 0
	for _, eng := range qpEngines {
		for mode := core.Mode1DBack; mode <= core.Mode3D; mode++ {
			for cond := core.CondAlways; cond <= core.CondSameSign3; cond++ {
				for maxLevel := 0; maxLevel <= 2; maxLevel++ {
					dims := dimsList[cell%len(dimsList)]
					literals := cell/len(dimsList)%2 == 1
					radius := radii[cell%len(radii)]
					cell++
					name := fmt.Sprintf("%s/%v/%v/ml%d/%v/lit=%v/r%d", eng.name, mode, cond, maxLevel, dims, literals, radius)
					f := qpField(dims, literals, int64(cell))
					eb := 1e-3

					off := core.DefaultBackend()
					off.Radius = radius
					trOff := &core.Trace{}
					off.Trace = trOff
					base, err := eng.compress(f, off, eb)
					if err != nil {
						t.Fatalf("%s: QP off: %v", name, err)
					}

					on := off
					on.QP = core.Config{Mode: mode, Cond: cond, MaxLevel: maxLevel}
					trOn := &core.Trace{}
					rec := obs.New()
					root := rec.Span("compress")
					on.Trace, on.Obs = trOn, root
					stream, err := eng.compress(f, on, eb)
					root.End()
					if err != nil {
						t.Fatalf("%s: QP on: %v", name, err)
					}

					if !slices.Equal(trOn.Q, trOff.Q) {
						t.Fatalf("%s: Trace.Q differs from the QP-off symbols", name)
					}
					moved := 0
					for i := range trOn.Q {
						if trOn.Q[i] != trOn.QP[i] {
							moved++
						}
					}
					if len(trOn.QP) != len(trOn.Q) || moved != trOn.Compensated {
						t.Fatalf("%s: Trace.QP changes %d of %d symbols, Compensated is %d", name, moved, len(trOn.QP), trOn.Compensated)
					}

					huff := rec.Report().Find("huffman")
					dq, dqp := entropy.Analyze(trOn.Q), entropy.Analyze(trOn.QP)
					if huff.Counters["est_bytes_q"] != int64(dq.HuffmanBytes()) ||
						math.Float64bits(huff.Gauges["entropy_q_bits"]) != math.Float64bits(dq.EntropyBits()) ||
						huff.Counters["est_bytes_qp"] != int64(dqp.HuffmanBytes()) {
						t.Fatalf("%s: huffman span prices q at %d B (%v bit), qp at %d B; Analyze says %d B (%v bit), %d B",
							name, huff.Counters["est_bytes_q"], huff.Gauges["entropy_q_bits"], huff.Counters["est_bytes_qp"],
							dq.HuffmanBytes(), dq.EntropyBits(), dqp.HuffmanBytes())
					}
					if huff.Counters["qp_kept"] == 0 {
						dropped++
						if !bytes.Equal(stream, base) {
							t.Fatalf("%s: QP dropped, but the stream differs from the QP-off stream", name)
						}
					}

					want, err := eng.decompress(base, dims)
					if err != nil {
						t.Fatalf("%s: decode QP off: %v", name, err)
					}
					got, err := eng.decompress(stream, dims)
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: QP changed the reconstruction at %d", name, i)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells, %d dropped QP", cell, dropped)
	if dropped == 0 || dropped == cell {
		t.Errorf("%d cells, %d dropped QP: the table must reach both decisions", cell, dropped)
	}
}
