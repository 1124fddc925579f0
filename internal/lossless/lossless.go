// Package lossless provides the final lossless compression stage that the
// paper's pipeline applies after entropy coding (ZSTD in the original
// implementations). Compress writes one codec beside verbatim storage
// (None, Store):
//
//   - Flate: DEFLATE, the default back-end: the in-package writer
//     (deflate.go) writes it and the in-package inflater (inflate.go)
//     reads it. A buffer past 64 KB is priced a segment at a time, and a
//     segment DEFLATE is priced not to shrink goes out as stored blocks
//     (flatePays).
//
// The other stream tags are decode-only, so that every stream earlier
// releases wrote keeps decoding: LZ (tag 2, lz.go), the sharded container
// (tag 4, sharded.go) and order-0 Huffman coding of the bytes (tag 7,
// huff.go). Auto, the name of the retired measured pick that wrote tags 4
// and 7, resolves to Flate in CompressSharded.
//
// All streams open with a one-byte codec tag and the uvarint plaintext
// length, so they are self-describing and the decoder can bound every
// allocation before making it.
package lossless

import (
	"encoding/binary"
	"fmt"

	"scdc/internal/verdict"
)

// flateMaxExpand is DEFLATE's decode expansion per spec (~1032x), the
// largest of any codec here.
const flateMaxExpand = 1032

// Codec identifies a lossless back-end.
type Codec byte

const (
	// None stores bytes verbatim.
	None Codec = 0
	// Flate is DEFLATE (RFC 1951), written by the in-package writer.
	Flate Codec = 1
	// LZ is the retired built-in LZ77 codec: it decodes, but Compress
	// and CompressSharded reject it.
	LZ Codec = 2
	// Sharded is the sharded container format (sharded.go). It is
	// decode-only, and appears as a stream tag only. (Tag 3 is reserved:
	// it was a range coder no public option ever selected, and decodes as
	// an unknown codec.)
	Sharded Codec = 4
	// Auto is the name of earlier releases' measured pick. It is never
	// written: CompressSharded resolves it to Flate, and Compress rejects
	// it.
	Auto Codec = 5
	// Store is a selection-only alias for None: it compresses to the
	// same stored stream (tag 0) but is a distinct option value, so
	// engine Options — whose zero value means "default back-end" — can
	// still request verbatim storage explicitly.
	Store Codec = 6
	// Huffman is order-0 canonical Huffman coding of the raw bytes
	// (huff.go). It is decode-only: Compress and CompressSharded reject
	// it.
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

// flateSegment is the span the Flate encoder prices at a time. A longer
// buffer is cut into ⌈n/flateSegment⌉ equal segments.
const flateSegment = 64 << 10

// maxStoredBlock is the most bytes one DEFLATE stored block holds.
const maxStoredBlock = 65535

// flateBound is the room flateCompressSegments is given for n bytes, so
// that a body stored in whole or in part never regrows. The encoder
// writes no block larger than its stored form, whose stored blocks cost 5
// bytes each past their bytes. A block of blockTokens tokens covers at
// least 16 KB, and so needs no more stored blocks than it has 16 KB
// pieces; a shorter block covers less than 64 KB, or a fixed block would
// undercut storing it. So, past n's 16 KB pieces, only the last block of
// each run of paying segments and each stored run add a stored block,
// and those are at most one per segment.
func flateBound(n int) int {
	return n + 5*(n>>14+n/flateSegment+2)
}

// flateCompressSegments appends src's DEFLATE body to dst. A buffer of one
// segment is one run of blocks. A longer one is priced a segment at a
// time: each run of segments flatePays prices as paying is one run of
// blocks, and each run of the others goes out as stored blocks. A run's
// matches may reach back into the bytes before it, which the inflater has
// written.
func flateCompressSegments(dst, src []byte) []byte {
	if len(src) <= flateSegment {
		return flateCompressBody(dst, src)
	}
	d := deflaterPool.Get().(*deflater)
	defer deflaterPool.Put(d)
	d.begin(dst)
	n := len(src)
	k := (n + flateSegment - 1) / flateSegment
	// The start of the pending run of paying or of stored segments.
	paying, stored := -1, -1
	for i := range k {
		lo, hi := i*n/k, (i+1)*n/k
		if !flatePays(src[lo:hi]) {
			if paying >= 0 {
				d.compress(src, paying, lo, false)
				paying = -1
			}
			if stored < 0 {
				stored = lo
			}
			continue
		}
		if stored >= 0 {
			d.w.stored(src[stored:lo], false)
			stored = -1
		}
		if paying < 0 {
			paying = lo
		}
	}
	if paying >= 0 {
		d.compress(src, paying, n, true)
	} else {
		d.w.stored(src[stored:], true)
	}
	return d.finish(n)
}

// header opens a stream — the codec tag and the uvarint plaintext length —
// with room for body more bytes.
func header(c Codec, n, body int) []byte {
	return binary.AppendUvarint(append(make([]byte, 0, 11+body), byte(c)), uint64(n))
}

// Compress encodes src with the chosen codec, prefixing the codec tag and
// the uncompressed length. It writes Flate and None (Store); the
// decode-only codecs and Auto are options errors.
func Compress(c Codec, src []byte) ([]byte, error) {
	if c == Store {
		c = None
	}
	switch c {
	case None:
		return append(header(c, len(src), len(src)), src...), nil
	case Flate:
		return flateCompressSegments(header(c, len(src), flateBound(len(src))), src), nil
	case LZ, Sharded, Huffman:
		return nil, fmt.Errorf("%w: lossless: %v is decode-only", verdict.ErrBadOptions, c)
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
