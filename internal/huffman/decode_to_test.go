package huffman

import (
	"errors"
	"math"
	"slices"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

// TestDecodeParallelToDirtyOutput: a caller-supplied output array may
// hold any symbols and run past the count, as a pooled one does. Every
// layout — plain, sharded and run-coded, the run table's kernel and the
// in-place expansion — decodes into it exactly what DecodeParallel
// returns and writes nothing past the count; a truncated stream fails
// the same way either path.
func TestDecodeParallelToDirtyOutput(t *testing.T) {
	plain := skewed(50_000, 1)
	streams := map[string][]byte{
		"plain":   EncodePlain(plain, entropy.Analyze(plain)),
		"sharded": encodeSharded(skewed(200_000, 2), 4, 1),
	}
	for name, c := range runCases() {
		streams["runs/"+name] = encode(c.q)
	}
	const spare = 257
	for name, enc := range streams {
		want, err := DecodeParallel(enc, -1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, junk := range []int32{0, -1, math.MaxInt32, math.MinInt32, want[len(want)-1]} {
			var buf []int32
			out := func(n int) []int32 {
				buf = make([]int32, n+spare)
				for i := range buf {
					buf[i] = junk
				}
				return buf[:n]
			}
			for _, workers := range []int{1, 4} {
				got, err := DecodeParallelTo(enc, len(want), workers, out)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s junk %d workers %d: err %v, output equal %v", name, junk, workers, err, slices.Equal(got, want))
				}
				for i, s := range buf[len(want):] {
					if s != junk {
						t.Fatalf("%s junk %d: wrote slot %d past the count", name, junk, len(want)+i)
					}
				}
			}
		}
		cut := enc[:len(enc)*3/4]
		_, errRef := DecodeParallel(cut, len(want), 1)
		_, errTo := DecodeParallelTo(cut, len(want), 1, func(n int) []int32 { return make([]int32, n+spare) })
		if !errors.Is(errRef, verdict.ErrCorrupt) || !errors.Is(errTo, verdict.ErrCorrupt) {
			t.Fatalf("%s truncated: DecodeParallel %v, DecodeParallelTo %v", name, errRef, errTo)
		}
	}
}
