// Package lossless provides the final lossless compression stage that the
// paper's pipeline applies after entropy coding (ZSTD in the original
// implementations). Interchangeable codecs are provided:
//
//   - Flate: the stdlib DEFLATE implementation, the default back-end.
//   - Huffman: order-0 canonical Huffman coding of the bytes (huff.go).
//   - Sharded: a container (sharded.go) that splits the plaintext into
//     size-derived shards compressed and decompressed in parallel.
//   - Auto: per-buffer (or per-shard) selection of store, Huffman or
//     flate from a sampled size estimate (estimate.go).
//
// LZ (tag 2, lz.go) is decode-only: earlier releases wrote it, and
// flate's output was smaller on every buffer Auto gave it.
//
// All streams open with a one-byte codec tag and the uvarint plaintext
// length, so they are self-describing and the decoder can bound every
// allocation before making it.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"scdc/internal/verdict"
)

var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
	return w
}}

// flateReaderState pairs a pooled flate reader with the bytes.Reader it
// resets over, so a decompress call allocates neither.
type flateReaderState struct {
	br bytes.Reader
	r  io.ReadCloser
}

var flateReaderPool = sync.Pool{New: func() any {
	st := new(flateReaderState)
	st.r = flate.NewReader(&st.br)
	return st
}}

// flateMaxExpand is DEFLATE's decode expansion per spec (~1032x), the
// largest of any codec here.
const flateMaxExpand = 1032

// Codec identifies a lossless back-end.
type Codec byte

const (
	// None stores bytes verbatim.
	None Codec = 0
	// Flate is stdlib DEFLATE at default compression.
	Flate Codec = 1
	// LZ is the retired built-in LZ77 codec: it decodes, but Compress
	// and CompressSharded reject it.
	LZ Codec = 2
	// Sharded is the parallel container format (sharded.go). It appears
	// as a stream tag only; use CompressSharded with an inner codec to
	// produce it. (Tag 3 is reserved: it was a range coder no public
	// option ever selected, and decodes as an unknown codec.)
	Sharded Codec = 4
	// Auto selects the cheapest of store, Huffman and flate from a
	// sampled size estimate (estimate.go). Selection-only: the chosen codec's
	// tag is what the stream records, so Auto is never written.
	Auto Codec = 5
	// Store is a selection-only alias for None: it compresses to the
	// same stored stream (tag 0) but is a distinct option value, so
	// engine Options — whose zero value means "default back-end" — can
	// still request verbatim storage explicitly.
	Store Codec = 6
	// Huffman is order-0 canonical Huffman coding of the raw bytes
	// (huff.go) — DEFLATE-grade ratio on match-free entropy-stage output
	// at a fraction of the cost.
	Huffman Codec = 7
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case Flate:
		return "flate"
	case LZ:
		return "lz"
	case Sharded:
		return "sharded"
	case Auto:
		return "auto"
	case Store:
		return "store"
	case Huffman:
		return "huffman"
	default:
		return fmt.Sprintf("codec(%d)", byte(c))
	}
}

// flateCompressBody writes the DEFLATE stream for src to w using a
// pooled writer.
func flateCompressBody(w io.Writer, src []byte) error {
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(w)
	if _, err := fw.Write(src); err != nil {
		return err
	}
	return fw.Close()
}

// header opens a stream — the codec tag and the uvarint plaintext length —
// with room for body more bytes.
func header(c Codec, n, body int) []byte {
	return binary.AppendUvarint(append(make([]byte, 0, 11+body), byte(c)), uint64(n))
}

// Compress encodes src with the chosen codec, prefixing the codec tag and
// the uncompressed length. Auto resolves to the cheapest estimated codec
// first; the Sharded container has its own entry point (CompressSharded)
// because it needs an inner codec and a worker count.
func Compress(c Codec, src []byte) ([]byte, error) {
	if c == Auto {
		c = pickCodec(src)
	}
	if c == Store {
		c = None
	}
	hdr := header(c, len(src), 0)
	switch c {
	case None:
		return append(hdr, src...), nil
	case Flate:
		var buf bytes.Buffer
		buf.Grow(len(hdr) + len(src)/2 + 64)
		buf.Write(hdr)
		// Flate writers carry large internal match/window state; recycling
		// them removes the dominant per-call allocation of this stage.
		if err := flateCompressBody(&buf, src); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case Huffman:
		return huffCompressBody(hdr, src, 1), nil
	case LZ:
		return nil, fmt.Errorf("%w: lossless: lz is decode-only", verdict.ErrBadOptions)
	case Sharded:
		return nil, fmt.Errorf("%w: lossless: use CompressSharded for the sharded container", verdict.ErrBadOptions)
	default:
		return nil, fmt.Errorf("%w: lossless: unknown codec %d", verdict.ErrBadOptions, c)
	}
}

// PayloadLimit returns a safe DecompressLimit bound for a codec payload
// that decodes a field of the given point count: generous enough for any
// stream the compressors can emit (headers, Huffman tables, 64-bit
// literals and anchors), yet proportional to the memory the caller will
// allocate for the field anyway.
func PayloadLimit(points int) int {
	const mult, slack = 256, 65536
	maxInt := int(^uint(0) >> 1)
	if points > (maxInt-slack)/mult {
		return maxInt
	}
	return mult*points + slack
}

// Decompress reverses Compress with no bound on the declared output size.
func Decompress(data []byte) ([]byte, error) {
	return DecompressLimit(data, -1, 1)
}

// DecompressLimit is Decompress with an upper bound on the header-declared
// output size and a worker count. A decoder that knows its decoded
// geometry should pass PayloadLimit(points) so a hostile or damaged length
// header fails fast instead of driving a giant allocation (the LZ codec
// otherwise decodes exactly as many bytes as the header claims); maxOut <
// 0 disables the check. The shards of the sharded container and of the
// Huffman byte codec decode on up to workers goroutines; the other codecs
// are single-body and ignore workers. The decoded bytes are identical for
// every worker count.
func DecompressLimit(data []byte, maxOut, workers int) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: lossless: empty stream", verdict.ErrCorrupt)
	}
	c := Codec(data[0])
	n, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return nil, fmt.Errorf("%w: lossless: bad length header", verdict.ErrCorrupt)
	}
	if maxOut >= 0 && n > uint64(maxOut) {
		return nil, fmt.Errorf("%w: lossless: declared size %d exceeds limit %d", verdict.ErrCorrupt, n, maxOut)
	}
	body := data[1+k:]
	switch c {
	case None:
		if uint64(len(body)) != n {
			return nil, fmt.Errorf("%w: lossless: stored length mismatch", verdict.ErrCorrupt)
		}
		return append([]byte(nil), body...), nil
	case Flate:
		// n is admissible once it sits under both the caller's limit and
		// the expansion bound; the output is then allocated exactly once
		// and filled in place.
		if n > flateMaxExpand*uint64(len(body))+64 {
			return nil, fmt.Errorf("%w: lossless: declared size %d impossible for %d input bytes", verdict.ErrCorrupt, n, len(body))
		}
		out := make([]byte, n)
		if err := flateDecompressInto(out, body); err != nil {
			return nil, err
		}
		return out, nil
	case LZ:
		return lzDecompress(body, int(n))
	case Huffman:
		return huffDecompress(body, int(n), workers)
	case Sharded:
		return decodeSharded(body, int(n), workers)
	default:
		return nil, fmt.Errorf("%w: lossless: unknown codec %d", verdict.ErrCorrupt, c)
	}
}

// flateDecompressInto inflates body into exactly dst, reading directly
// into the destination with a pooled reader — no intermediate buffer.
func flateDecompressInto(dst, body []byte) error {
	st := flateReaderPool.Get().(*flateReaderState)
	defer flateReaderPool.Put(st)
	st.br.Reset(body)
	if err := st.r.(flate.Resetter).Reset(&st.br, nil); err != nil {
		return fmt.Errorf("%w: lossless: flate: %w", verdict.ErrCorrupt, err)
	}
	if _, err := io.ReadFull(st.r, dst); err != nil {
		return fmt.Errorf("%w: lossless: flate: %w", verdict.ErrCorrupt, err)
	}
	// One byte past the declared length distinguishes "exactly n" from
	// "stream kept going": both a short and a long body are corruption.
	var probe [1]byte
	if _, err := st.r.Read(probe[:]); err != io.EOF {
		return fmt.Errorf("%w: lossless: flate length mismatch", verdict.ErrCorrupt)
	}
	return nil
}
