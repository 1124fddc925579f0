package inttest

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/lossless"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
)

// TestInterpWorkersBitIdentical runs the worker-matrix pattern at the
// engine layer: for sz3 × {linear, cubic} and qoz, whose tuner always
// runs (tune=true in the cell names), with QP on and off, compressed
// streams must be byte-identical and decompressed fields bit-identical
// across worker counts {1, 2, 4}. The
// streams carry four Huffman shards and lossless.Auto's sharded stage,
// the stages Workers fans out; the bound is tight enough that Auto
// writes a sharded form past its 64KB plaintext floor — the tag-4
// container or the Huffman byte codec's tag 7 — which the test checks.
func TestInterpWorkersBitIdentical(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{40, 48, 56}, 9)
	field := grid.MustNew(f.Dims()...)
	copy(field.Data, f.Data)
	workerCounts := []int{1, 2, 4}
	eb := 1e-5 * f.Range()
	backend := func(workers int, qp bool) core.Backend {
		b := core.DefaultBackend()
		b.Workers, b.Shards, b.Lossless = workers, 4, lossless.Auto
		if qp {
			b.QP = core.Default()
		}
		return b
	}

	type cell struct {
		name       string
		compress   func(workers int) ([]byte, error)
		decompress func(payload []byte, workers int) (*grid.Field, error)
	}
	var cells []cell
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		for _, qp := range []bool{false, true} {
			kind, qp := kind, qp
			cells = append(cells, cell{
				name: fmt.Sprintf("sz3/%v/qp=%v", kind, qp),
				compress: func(workers int) ([]byte, error) {
					opts := sz3.DefaultOptions(eb)
					opts.Backend = backend(workers, qp)
					opts.Interp, opts.Choice = kind, sz3.ChoiceInterp
					return sz3.Compress(field, opts)
				},
				decompress: func(payload []byte, workers int) (*grid.Field, error) {
					return sz3.DecompressObs(payload, field.Dims(), workers, nil)
				},
			})
		}
	}
	for _, qp := range []bool{false, true} {
		qp := qp
		cells = append(cells, cell{
			name: fmt.Sprintf("qoz/tune=true/qp=%v", qp),
			compress: func(workers int) ([]byte, error) {
				return qoz.Compress(field, qoz.Options{Backend: backend(workers, qp), ErrorBound: eb})
			},
			decompress: func(payload []byte, workers int) (*grid.Field, error) {
				return qoz.DecompressObs(payload, field.Dims(), workers, nil)
			},
		})
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var refStream []byte
			var refField []float64
			for _, w := range workerCounts {
				stream, err := c.compress(w)
				if err != nil {
					t.Fatalf("workers=%d: compress: %v", w, err)
				}
				out, err := c.decompress(stream, w)
				if err != nil {
					t.Fatalf("workers=%d: decompress: %v", w, err)
				}
				if w == workerCounts[0] {
					if tag := lossless.Codec(stream[0]); tag != lossless.Sharded && tag != lossless.Huffman {
						t.Fatalf("the sharded lossless stage did not engage (tag %d)", tag)
					}
					refStream, refField = stream, out.Data
					continue
				}
				if !bytes.Equal(stream, refStream) {
					t.Fatalf("workers=%d: stream differs from workers=1 (%d vs %d bytes)",
						w, len(stream), len(refStream))
				}
				for i := range refField {
					if math.Float64bits(out.Data[i]) != math.Float64bits(refField[i]) {
						t.Fatalf("workers=%d: field diverges at %d: %v != %v",
							w, i, out.Data[i], refField[i])
					}
				}
			}
		})
	}
}
