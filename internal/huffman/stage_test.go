package huffman_test

import (
	"slices"
	"testing"

	"scdc/internal/bench"
	"scdc/internal/entropy"
	"scdc/internal/huffman"
)

// BenchmarkCodeLengths times the code-length build alone (tree, depths,
// canonical order) on the QP index arrays of bench.IndexCells, per
// symbol of the array, next to the root BenchmarkEntropyStage's analyze,
// encode and decode rows for the same arrays.
func BenchmarkCodeLengths(b *testing.B) {
	for _, c := range bench.IndexCells {
		_, qp, err := c.Arrays()
		if err != nil {
			b.Fatal(err)
		}
		d := entropy.Analyze(qp)
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			maxLen := 0
			for i := 0; i < b.N; i++ {
				maxLen = huffman.CodeLengths(d)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qp)), "ns/symbol")
			b.ReportMetric(float64(d.Distinct()), "symbols")
			b.ReportMetric(float64(maxLen), "maxlen")
		})
	}
}

// TestWorkloadKernels: the QP index array of each repository-benchmark
// workload decodes through the kernel measured fastest on its traffic —
// the run-coded SZ3 and QoZ arrays through expandFast, HPEZ's plain ~3
// bits/symbol array through decodeMulti and MGARD's ~10 bits/symbol one
// through decodeSingle — and back to itself.
func TestWorkloadKernels(t *testing.T) {
	want := map[string]string{
		"sz3_smooth": "expandFast", "qoz_tuned": "expandFast",
		"hpez_block": "decodeMulti", "mgard_tight": "decodeSingle",
	}
	for _, c := range bench.Workloads {
		_, qp, err := c.Arrays()
		if err != nil {
			t.Fatal(err)
		}
		enc := huffman.EncodeDist(qp, entropy.Analyze(qp))
		if k, err := huffman.Kernel(enc); err != nil || k != want[c.Name] {
			t.Errorf("%s: kernel %q, %v; want %q", c.Name, k, err, want[c.Name])
		}
		if got, err := huffman.DecodeN(enc, len(qp)); err != nil || !slices.Equal(got, qp) {
			t.Errorf("%s: decode: %v", c.Name, err)
		}
	}
}
