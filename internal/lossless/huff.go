package lossless

import (
	"fmt"

	"scdc/internal/huffman"
	"scdc/internal/verdict"
)

// The Huffman byte codec (tag 7) is decode-only: earlier releases wrote
// it for match-free buffers, where order-0 entropy coding of the raw
// bytes reached DEFLATE's ratio without a match search. The stream body
// is the huffman package's byte sub-format: a flat 256-byte code-length
// table shared by uvarint-directory shards (huffman/bytes.go).

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
