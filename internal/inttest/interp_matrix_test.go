package inttest

import (
	"bytes"
	"fmt"
	"math"
	"sync"
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
// engine layer, the way CompressChunked and a chunked decode use the
// engines: one field per goroutine, {1, 2, 4} goroutines compressing and
// decompressing at once. For sz3 × {linear, cubic} and qoz, whose tuner
// always runs (tune=true in the cell names), with QP on and off, every
// goroutine's stream must be byte-identical and its decompressed field
// bit-identical to a lone call's, so no pooled scratch leaks between
// concurrent calls. The streams carry lossless.Auto's sharded stage; the
// bound is tight enough that Auto
// writes a sharded form past its 64KB plaintext floor — the tag-4
// container or the Huffman byte codec's tag 7 — which the test checks.
func TestInterpWorkersBitIdentical(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{40, 48, 56}, 9)
	field := grid.MustNew(f.Dims()...)
	copy(field.Data, f.Data)
	workerCounts := []int{1, 2, 4}
	eb := 1e-5 * f.Range()
	backend := func(qp bool) core.Backend {
		b := core.DefaultBackend()
		b.Lossless = lossless.Auto
		if qp {
			b.QP = core.Default()
		}
		return b
	}

	type cell struct {
		name       string
		compress   func() ([]byte, error)
		decompress func(payload []byte) (*grid.Field, error)
	}
	var cells []cell
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		for _, qp := range []bool{false, true} {
			kind, qp := kind, qp
			cells = append(cells, cell{
				name: fmt.Sprintf("sz3/%v/qp=%v", kind, qp),
				compress: func() ([]byte, error) {
					opts := sz3.DefaultOptions(eb)
					opts.Backend = backend(qp)
					opts.Interp, opts.Choice = kind, sz3.ChoiceInterp
					return sz3.Compress(field, opts)
				},
				decompress: func(payload []byte) (*grid.Field, error) {
					return sz3.Decompress(payload, field.Dims())
				},
			})
		}
	}
	for _, qp := range []bool{false, true} {
		qp := qp
		cells = append(cells, cell{
			name: fmt.Sprintf("qoz/tune=true/qp=%v", qp),
			compress: func() ([]byte, error) {
				return qoz.Compress(field, qoz.Options{Backend: backend(qp), ErrorBound: eb})
			},
			decompress: func(payload []byte) (*grid.Field, error) {
				return qoz.Decompress(payload, field.Dims())
			},
		})
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			type result struct {
				stream []byte
				field  []float64
				err    error
			}
			run := func() (r result) {
				if r.stream, r.err = c.compress(); r.err != nil {
					return r
				}
				out, err := c.decompress(r.stream)
				if err != nil {
					r.err = err
					return r
				}
				r.field = out.Data
				return r
			}
			ref := run()
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			if tag := lossless.Codec(ref.stream[0]); tag != lossless.Sharded && tag != lossless.Huffman {
				t.Fatalf("the sharded lossless stage did not engage (tag %d)", tag)
			}
			for _, w := range workerCounts {
				results := make([]result, w)
				var wg sync.WaitGroup
				for g := range results {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						results[g] = run()
					}(g)
				}
				wg.Wait()
				for g, r := range results {
					if r.err != nil {
						t.Fatalf("workers=%d, goroutine %d: %v", w, g, r.err)
					}
					if !bytes.Equal(r.stream, ref.stream) {
						t.Fatalf("workers=%d, goroutine %d: stream differs from a lone call's (%d vs %d bytes)",
							w, g, len(r.stream), len(ref.stream))
					}
					for i := range ref.field {
						if math.Float64bits(r.field[i]) != math.Float64bits(ref.field[i]) {
							t.Fatalf("workers=%d, goroutine %d: field diverges at %d: %v != %v",
								w, g, i, r.field[i], ref.field[i])
						}
					}
				}
			}
		})
	}
}
