package sz3

import (
	"bytes"
	"testing"

	"scdc/internal/core"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/lossless"
)

// engineDims covers 1D through 4D.
var engineDims = [][]int{
	{20000},
	{160, 160},
	{24, 40, 48},
	{8, 12, 20, 24},
}

// TestParallelCompressBitIdentical verifies end to end that the stages
// Workers fans out — the sharded Huffman body and lossless.Auto's
// sharded stage — leave no trace in the stream: for every QP mode and
// condition, on 1D-4D fields, it is byte-identical for any worker count.
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
				opts.Shards, opts.Lossless = 4, lossless.Auto
				seq, err := Compress(f, opts)
				if err != nil {
					t.Fatalf("dims=%v mode=%v cond=%v: %v", dims, mode, cond, err)
				}
				opts.Workers = 4
				par, err := Compress(f, opts)
				if err != nil {
					t.Fatalf("dims=%v mode=%v cond=%v workers=4: %v", dims, mode, cond, err)
				}
				if !bytes.Equal(seq, par) {
					t.Errorf("dims=%v mode=%v cond=%v: parallel stream differs from sequential", dims, mode, cond)
				}
			}
		}
	}
}

// TestParallelDecompressBitIdentical verifies that parallel decompression
// reconstructs exactly the sequential output, for plain and QP streams,
// with and without the sharded Huffman body and lossless.Auto's sharded
// stage.
func TestParallelDecompressBitIdentical(t *testing.T) {
	for _, dims := range engineDims {
		f := synth(dims...)
		for _, qp := range []bool{false, true} {
			for _, shards := range []int{0, 4} {
				opts := DefaultOptions(1e-3)
				opts.Choice = ChoiceInterp
				opts.Workers = 4
				opts.Shards = shards
				if shards > 1 {
					opts.Lossless = lossless.Auto
				}
				if qp {
					opts = opts.WithQP()
				}
				payload, err := Compress(f, opts)
				if err != nil {
					t.Fatalf("dims=%v qp=%v shards=%d: %v", dims, qp, shards, err)
				}
				seq, err := Decompress(payload, dims)
				if err != nil {
					t.Fatalf("dims=%v qp=%v shards=%d: %v", dims, qp, shards, err)
				}
				par, err := DecompressObs(payload, dims, 4, nil)
				if err != nil {
					t.Fatalf("dims=%v qp=%v shards=%d workers=4: %v", dims, qp, shards, err)
				}
				for i := range seq.Data {
					if seq.Data[i] != par.Data[i] {
						t.Fatalf("dims=%v qp=%v shards=%d: output differs at %d", dims, qp, shards, i)
					}
				}
			}
		}
	}
}

// TestShardedStreamRoundTrips checks that a sharded stream decodes with a
// sequential reader (format compatibility) and respects the error bound.
func TestShardedStreamRoundTrips(t *testing.T) {
	f := synth(24, 40, 48)
	opts := DefaultOptions(1e-3).WithQP()
	opts.Shards = 8
	opts.Workers = 4
	roundTrip(t, f, opts)
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

// TestEngineDegenerateDims exercises the pass walker's skip logic, with a
// sharded back end, on extents of 1 and other degenerate shapes.
func TestEngineDegenerateDims(t *testing.T) {
	for _, dims := range [][]int{{1}, {1, 1}, {1, 64}, {64, 1}, {1, 1, 4096}, {2, 1, 2}} {
		f := synth(dims...)
		opts := DefaultOptions(1e-3).WithQP()
		opts.Choice = ChoiceInterp
		opts.Workers = 4
		opts.Shards = 4
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
