// Package lossless provides the final lossless compression stage that the
// paper's pipeline applies after entropy coding (ZSTD in the original
// implementations). Interchangeable codecs are provided:
//
//   - Flate: DEFLATE, the default back-end: compress/flate writes it and
//     the in-package inflater (inflate.go) reads it. A buffer past 64 KB
//     is written a segment at a time, and a segment DEFLATE is priced not
//     to shrink goes out as stored blocks (flatePays).
//   - Huffman: order-0 canonical Huffman coding of the bytes (huff.go).
//   - Sharded: a container (sharded.go) that splits the plaintext into
//     size-derived shards, each compressed by its own codec.
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

// Flate writers carry large match/window state; recycling them removes
// the dominant per-call allocation of this stage.
var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
	return w
}}

// flateMaxExpand is DEFLATE's decode expansion per spec (~1032x), the
// largest of any codec here.
const flateMaxExpand = 1032

// Codec identifies a lossless back-end.
type Codec byte

const (
	// None stores bytes verbatim.
	None Codec = 0
	// Flate is DEFLATE at compress/flate's default compression.
	Flate Codec = 1
	// LZ is the retired built-in LZ77 codec: it decodes, but Compress
	// and CompressSharded reject it.
	LZ Codec = 2
	// Sharded is the sharded container format (sharded.go). It appears
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

// flateSegment is the span the Flate encoder prices at a time. A longer
// buffer is cut into ⌈n/flateSegment⌉ equal segments.
const flateSegment = 64 << 10

// maxStoredBlock is the most bytes one DEFLATE stored block holds.
const maxStoredBlock = 65535

// flateBound is the room flateCompressSegments is given for n bytes, so
// that a body stored in whole or in part never regrows: compress/flate
// writes no storable block larger than its stored form, and on
// incompressible input it closes a block every 16 KB. Each block, the
// sync marker before a stored run and the closing marker cost at most 5.
func flateBound(n int) int {
	return n + 5*(n>>14+n/flateSegment+2)
}

// flateCompressSegments writes src's DEFLATE body to buf. A buffer of
// one segment is one pass of the pooled writer. A longer one goes
// through the writer a segment at a time, and a segment flatePays prices
// as not paying goes out as stored blocks instead: the
// writer flushes to a byte boundary before the stored run, and the next
// paying segment starts a Reset writer, so no back-reference crosses
// bytes the compressor never saw. compress/flate's output does not depend
// on how its input is split across Writes, so when every segment pays
// the body is byte-identical to one whole-buffer pass.
func flateCompressSegments(buf *bytes.Buffer, src []byte) error {
	if len(src) <= flateSegment {
		return flateCompressBody(buf, src)
	}
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	n := len(src)
	k := (n + flateSegment - 1) / flateSegment
	// open: fw holds the current flate run; stored: start of the
	// pending stored run, or -1.
	open, stored := false, -1
	for i := range k {
		lo, hi := i*n/k, (i+1)*n/k
		if !flatePays(src[lo:hi]) {
			if open {
				if err := fw.Flush(); err != nil {
					return err
				}
				open = false
			}
			if stored < 0 {
				stored = lo
			}
			continue
		}
		if stored >= 0 {
			writeStored(buf, src[stored:lo], false)
			stored = -1
		}
		if !open {
			fw.Reset(buf)
			open = true
		}
		if _, err := fw.Write(src[lo:hi]); err != nil {
			return err
		}
	}
	if stored >= 0 {
		writeStored(buf, src[stored:], true)
		return nil
	}
	return fw.Close()
}

// writeStored writes p as DEFLATE stored blocks from a byte boundary,
// setting BFINAL on the last one when final.
func writeStored(buf *bytes.Buffer, p []byte, final bool) {
	for len(p) > 0 {
		m := min(len(p), maxStoredBlock)
		var h [5]byte
		if final && m == len(p) {
			h[0] = 1
		}
		binary.LittleEndian.PutUint16(h[1:], uint16(m))
		binary.LittleEndian.PutUint16(h[3:], ^uint16(m))
		buf.Write(h[:])
		buf.Write(p[:m])
		p = p[m:]
	}
}

// header opens a stream — the codec tag and the uvarint plaintext length —
// with room for body more bytes.
func header(c Codec, n, body int) []byte {
	return binary.AppendUvarint(append(make([]byte, 0, 11+body), byte(c)), uint64(n))
}

// Compress encodes src with the chosen codec, prefixing the codec tag and
// the uncompressed length. Auto resolves to the cheapest estimated codec
// first; the Sharded container has its own entry point (CompressSharded)
// because it needs an inner codec.
func Compress(c Codec, src []byte) ([]byte, error) {
	if c == Auto {
		c = pickCodec(src)
	}
	if c == Store {
		c = None
	}
	switch c {
	case None:
		return append(header(c, len(src), len(src)), src...), nil
	case Flate:
		buf := bytes.NewBuffer(header(c, len(src), flateBound(len(src))))
		if err := flateCompressSegments(buf, src); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case Huffman:
		return huffCompressBody(header(c, len(src), 0), src), nil
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
	return DecompressLimit(data, -1)
}

// DecompressLimit is Decompress with an upper bound on the header-declared
// output size. A decoder that knows its decoded geometry should pass
// PayloadLimit(points) so a hostile or damaged length header fails fast
// instead of driving a giant allocation (the LZ codec otherwise decodes
// exactly as many bytes as the header claims); maxOut < 0 disables the
// check.
func DecompressLimit(data []byte, maxOut int) ([]byte, error) {
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
		return huffDecompress(body, int(n))
	case Sharded:
		return decodeSharded(body, int(n))
	default:
		return nil, fmt.Errorf("%w: lossless: unknown codec %d", verdict.ErrCorrupt, c)
	}
}

// flateDecompressInto inflates body into exactly dst with the in-package
// decoder (inflate.go) and its pooled tables. A body that ends short of
// len(dst) or runs past it is corrupt.
func flateDecompressInto(dst, body []byte) error {
	f := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(f)
	if err := f.inflate(dst, body); err != nil {
		return fmt.Errorf("%w: lossless: flate: %w", verdict.ErrCorrupt, err)
	}
	return nil
}
