package lossless

import (
	"fmt"

	"scdc/internal/huffman"
	"scdc/internal/verdict"
)

// The Huffman byte codec (tag 7) runs the kernelized canonical Huffman
// coder over the raw bytes — pure order-0 entropy coding, no match
// search. It exists because the lossless stage's usual input is the
// entropy-coded index stream, whose byte histogram is heavily skewed
// (short Huffman runs, small literals) but whose long-range structure
// is already squeezed out: on such buffers DEFLATE's entire gain is its
// literal Huffman table, so this codec reaches the same ratio at a
// fraction of the cost by skipping the match finder altogether. The
// size estimator prices it from the sampled byte entropy, letting Auto
// route match-free buffers here and match-rich ones to flate.
//
// The stream body is the huffman package's byte sub-format: a flat
// 256-byte code-length table shared by uvarint-directory shards, so one
// table purchase amortizes across the shard bodies (huffman/bytes.go).

// huffCompressBody appends the Huffman byte stream for src to dst. The
// shard count derives from len(src) alone.
func huffCompressBody(dst, src []byte) []byte {
	return huffman.EncodeBytesTo(dst, src, ShardCount(len(src)))
}

// huffDecompress decodes a Huffman byte stream into exactly n bytes.
func huffDecompress(body []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: lossless: negative length", verdict.ErrCorrupt)
	}
	// Every Huffman code spends at least one bit per symbol, so a lying
	// length header fails before the allocation it was hoping to force.
	if uint64(n) > 8*uint64(len(body)) {
		return nil, fmt.Errorf("%w: lossless: declared size %d impossible for %d input bytes", verdict.ErrCorrupt, n, len(body))
	}
	out := make([]byte, n)
	if err := huffman.DecodeBytesInto(out, body); err != nil {
		return nil, err
	}
	return out, nil
}
