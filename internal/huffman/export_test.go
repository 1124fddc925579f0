package huffman

import "scdc/internal/entropy"

// CodeLengths runs codeLengths for the external test package, whose
// benchmarks take real index arrays from the engines (which import this
// package), and reports the longest code.
func CodeLengths(d *entropy.Dist) (maxLen int) {
	table, _ := codeLengths(d)
	return table[len(table)-1].len
}
