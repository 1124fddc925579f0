package scdc

import (
	"bytes"
	"fmt"
	"testing"

	"scdc/datasets"
	"scdc/internal/lossless"
)

// TestQPMatrixWorkersBitIdentical sweeps the full QP configuration matrix
// — every mode, every condition, every interpolation-based algorithm —
// and proves that the worker count is invisible in the output: compressed
// streams are byte-identical and decompressed fields bit-identical to the
// workers=1 reference. The streams carry LosslessAuto's sharded lossless
// stage; the bound and the fields are tight and large enough that Auto
// writes a sharded form (past its 64KB plaintext floor): the tag-4
// container or the Huffman byte codec's tag 7, whose shards share one
// table. The test checks that it did.
func TestQPMatrixWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		dims []int
	}{
		{SZ3, []int{48, 32, 32}},
		{QoZ, []int{48, 32, 32}},
		{HPEZ, []int{48, 36, 32}},
		{MGARD, []int{33, 32, 30}},
	}
	modes := []QPMode{QPOff, QP1DBack, QP1DTop, QP1DLeft, QP2D, QP3D}
	conds := []QPCondition{QPCaseI, QPCaseII, QPCaseIII, QPCaseIV}
	workerCounts := []int{1, 2, 4}

	for _, tc := range cases {
		data, dims, err := datasets.Generate("SCALE", 0, tc.dims, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			for _, cond := range conds {
				if mode == QPOff && cond != QPCaseI {
					continue // condition is inert with QP disabled
				}
				name := fmt.Sprintf("%s/mode%d/cond%d", tc.alg, mode, cond)
				t.Run(name, func(t *testing.T) {
					var refStream []byte
					var refField []float64
					for _, w := range workerCounts {
						opts := Options{
							Algorithm:     tc.alg,
							RelativeBound: 1e-5,
							QP:            QPConfig{Mode: mode, Condition: cond, MaxLevel: 2},
							Workers:       w,
							Lossless:      LosslessAuto,
						}
						stream, err := Compress(data, dims, opts)
						if err != nil {
							t.Fatalf("workers=%d: compress: %v", w, err)
						}
						res, err := DecompressParallel(stream, w)
						if err != nil {
							t.Fatalf("workers=%d: decompress: %v", w, err)
						}
						if w == workerCounts[0] {
							h, err := parseHeader(stream, true)
							if err != nil {
								t.Fatal(err)
							}
							if tag := lossless.Codec(h.payload[0]); tag != lossless.Sharded && tag != lossless.Huffman {
								t.Fatalf("the sharded lossless stage did not engage (tag %d)", tag)
							}
							refStream, refField = stream, res.Data
							continue
						}
						if !bytes.Equal(stream, refStream) {
							t.Fatalf("workers=%d: stream differs from workers=1 (%d vs %d bytes)",
								w, len(stream), len(refStream))
						}
						if len(res.Data) != len(refField) {
							t.Fatalf("workers=%d: field length %d != %d", w, len(res.Data), len(refField))
						}
						for i := range refField {
							if res.Data[i] != refField[i] {
								t.Fatalf("workers=%d: field diverges at %d: %v != %v",
									w, i, res.Data[i], refField[i])
							}
						}
					}
				})
			}
		}
	}
}
