package huffman_test

import (
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
