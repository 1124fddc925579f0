package huffman

import (
	"errors"
	"math"
	"slices"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

// TestDecodeParallelToDirtyOutput: a caller-supplied output array
// (DecodeTo) may hold any symbols and run past the count, as a pooled one
// does. Every layout — plain, sharded and run-coded, the run table's
// kernel and the in-place expansion — decodes into it exactly what
// DecodeN returns and writes nothing past the count; a truncated stream fails
// the same way either path.
func TestDecodeParallelToDirtyOutput(t *testing.T) {
	plain := skewed(50_000, 1)
	streams := map[string][]byte{
		"plain":   EncodePlain(plain, entropy.Analyze(plain)),
		"sharded": encodeSharded(skewed(200_000, 2), 4),
	}
	for name, c := range runCases() {
		streams["runs/"+name] = encode(c.q)
	}
	const spare = 257
	for name, enc := range streams {
		want, err := DecodeN(enc, -1)
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
			got, err := DecodeTo(enc, len(want), out)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s junk %d: err %v, output equal %v", name, junk, err, slices.Equal(got, want))
			}
			for i, s := range buf[len(want):] {
				if s != junk {
					t.Fatalf("%s junk %d: wrote slot %d past the count", name, junk, len(want)+i)
				}
			}
		}
		cut := enc[:len(enc)*3/4]
		_, errRef := DecodeN(cut, len(want))
		_, errTo := DecodeTo(cut, len(want), func(n int) []int32 { return make([]int32, n+spare) })
		if !errors.Is(errRef, verdict.ErrCorrupt) || !errors.Is(errTo, verdict.ErrCorrupt) {
			t.Fatalf("%s truncated: DecodeN %v, DecodeTo %v", name, errRef, errTo)
		}
	}
}
