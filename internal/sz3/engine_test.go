package sz3

import (
	"bytes"
	"slices"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/lossless"
	"scdc/internal/obs"
)

// engineDims covers 1D through 4D.
var engineDims = [][]int{
	{20000},
	{160, 160},
	{24, 40, 48},
	{8, 12, 20, 24},
}

// TestParallelCompressBitIdentical verifies end to end that the lossless
// back-end changes the stream's layout only: for every QP mode and
// condition, on 1D-4D fields, the stored stream decodes to exactly the
// field the flate stream decodes to.
func TestParallelCompressBitIdentical(t *testing.T) {
	for _, dims := range engineDims {
		f := synth(dims...)
		for mode := core.ModeOff; mode <= core.Mode3D; mode++ {
			for cond := core.CondAlways; cond <= core.CondSameSign3; cond++ {
				if mode == core.ModeOff && cond != core.CondAlways {
					continue
				}
				opts := DefaultOptions(1e-3)
				opts.Choice = ChoiceInterp
				opts.QP = core.Config{Mode: mode, Cond: cond, MaxLevel: 2}
				var fields [2][]float64
				for k, codec := range []lossless.Codec{lossless.Flate, lossless.Store} {
					opts.Lossless = codec
					payload, err := Compress(f, opts)
					if err != nil {
						t.Fatalf("dims=%v mode=%v cond=%v lossless=%v: %v", dims, mode, cond, codec, err)
					}
					out, err := Decompress(payload, dims)
					if err != nil {
						t.Fatalf("dims=%v mode=%v cond=%v lossless=%v: %v", dims, mode, cond, codec, err)
					}
					fields[k] = out.Data
				}
				if !slices.Equal(fields[0], fields[1]) {
					t.Errorf("dims=%v mode=%v cond=%v: the stored stream decodes to another field", dims, mode, cond)
				}
			}
		}
	}
}

// TestParallelDecompressBitIdentical verifies that observed decompression
// (DecompressObs with a span) reconstructs exactly the unobserved output,
// for plain and QP streams, on the flate and the stored back-end.
func TestParallelDecompressBitIdentical(t *testing.T) {
	for _, dims := range engineDims {
		f := synth(dims...)
		for _, qp := range []bool{false, true} {
			for _, codec := range []lossless.Codec{lossless.Flate, lossless.Store} {
				opts := DefaultOptions(1e-3)
				opts.Choice = ChoiceInterp
				opts.Lossless = codec
				if qp {
					opts = opts.WithQP()
				}
				payload, err := Compress(f, opts)
				if err != nil {
					t.Fatalf("dims=%v qp=%v lossless=%v: %v", dims, qp, codec, err)
				}
				plain, err := Decompress(payload, dims)
				if err != nil {
					t.Fatalf("dims=%v qp=%v lossless=%v: %v", dims, qp, codec, err)
				}
				observed, err := DecompressObs(payload, dims, obs.New().Span("decompress"))
				if err != nil {
					t.Fatalf("dims=%v qp=%v lossless=%v observed: %v", dims, qp, codec, err)
				}
				if !slices.Equal(plain.Data, observed.Data) {
					t.Fatalf("dims=%v qp=%v lossless=%v: observed output differs", dims, qp, codec)
				}
			}
		}
	}
}

// TestEnginePooledScratchReuse runs repeated compressions to shake out
// stale-state bugs in the pooled scratch buffers: a recycled buffer from a
// previous (differently-shaped) call must not influence the stream.
func TestEnginePooledScratchReuse(t *testing.T) {
	big := synth(24, 40, 48)
	small := synth(10, 12, 14)
	opts := DefaultOptions(1e-3).WithQP()
	opts.Choice = ChoiceInterp
	want, err := Compress(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Compress(big, opts); err != nil {
			t.Fatal(err)
		}
		got, err := Compress(small, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("iteration %d: pooled scratch changed the stream", i)
		}
	}
}

// TestEngineDegenerateDims exercises the pass walker's skip logic on
// extents of 1 and other degenerate shapes.
func TestEngineDegenerateDims(t *testing.T) {
	for _, dims := range [][]int{{1}, {1, 1}, {1, 64}, {64, 1}, {1, 1, 4096}, {2, 1, 2}} {
		f := synth(dims...)
		opts := DefaultOptions(1e-3).WithQP()
		opts.Choice = ChoiceInterp
		out := roundTrip(t, f, opts)
		if len(out.Data) != len(f.Data) {
			t.Fatalf("dims=%v: wrong output size", dims)
		}
	}
}

// TestLineSliceMatchesLine cross-checks the batched slice kernel against
// the closure-based reference on every point of a real schedule.
func TestLineSliceMatchesLine(t *testing.T) {
	f := synth(24, 40, 48)
	dims := f.Dims()
	strides := grid.Strides(dims)
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		forEachPoint(dims, strides, DefaultDirOrder(len(dims)), Levels(dims), func(pt *Point) {
			base, strd := pt.LineBase, pt.LineStrd
			want := interp.Line(func(pos int) float64 {
				return f.Data[base+pos*strd]
			}, pt.N, pt.T, pt.S, kind)
			got := interp.LineSlice(f.Data, base, strd, pt.N, pt.T, pt.S, kind)
			if got != want {
				t.Fatalf("kind=%v idx=%d: LineSlice=%g Line=%g", kind, pt.Idx, got, want)
			}
		})
	}
}
