package huffman

import "scdc/internal/entropy"

// CodeLengths runs codeLengths for the external test package, whose
// benchmarks take real index arrays from the engines (which import this
// package), and reports the longest code.
func CodeLengths(d *entropy.Dist) (maxLen int) {
	table, _ := codeLengths(d)
	return table[len(table)-1].len
}

// Kernel names the kernel DecodeN decodes enc's block through.
func Kernel(enc []byte) (string, error) {
	b, err := parseBlock(enc, -1)
	switch {
	case err != nil:
		return "", err
	case !multiPays(int(b.m), len(b.body)):
		return "decodeSingle", nil
	case b.runs:
		return "expandFast", nil
	}
	return "decodeMulti", nil
}
