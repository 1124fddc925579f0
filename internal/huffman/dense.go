package huffman

import "scdc/internal/entropy"

// Size/entropy estimators, kept as thin wrappers over entropy.Analyze so
// existing callers keep their one-call API. Hot paths
// (core.ChooseEncodingCoder) analyze once and pass the Dist to
// EncodeDist/EncodeShardedDist instead of calling these, avoiding repeated
// histogram passes.

// EstimateBytes returns the approximate encoded size of q (Huffman body
// via Shannon entropy, plus the table header) without building codes.
// Used by the QP adaptive fallback to pick a stream before paying for a
// full encode.
func EstimateBytes(q []int32) int {
	return entropy.Analyze(q).HuffmanBytes()
}

// EntropyBits returns the Shannon entropy of q in bits per symbol — the
// quantity QP minimizes (paper Section V-A). Telemetry only: it costs a
// full histogram pass.
func EntropyBits(q []int32) float64 {
	return entropy.Analyze(q).EntropyBits()
}
