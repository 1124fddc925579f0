package lossless

import (
	"encoding/binary"
	"fmt"

	"scdc/internal/verdict"
)

// The LZ codec (tag 2) is a byte-oriented LZ77 in the LZ4 mold ("lz/2"),
// a sequence format built for branch-light decode. Only its decoder
// remains, so every tag-2 stream ever written keeps reading; no option
// writes one:
//
//	token    1 byte: litLen in the high nibble, matchLen-4 in the low
//	         nibble; a nibble of 15 extends with 255-run length bytes
//	         (each 255 adds 255, the first byte < 255 terminates)
//	[litExt] extension bytes when litLen nibble == 15
//	literals litLen raw bytes
//	offset   2 bytes little endian, 1..65535 (absent in the final
//	         sequence)
//	[mExt]   extension bytes when the match nibble == 15
//
// The final sequence carries only literals: the decoder stops when the
// declared output length is reached, so no in-band terminator exists.
// Matches are at least lzMinMatch bytes and may overlap their source.
// The 4-byte seed hash below is the size probe's (estimate.go).

const (
	lzMinMatch = 4
	lzHashBits = 16
	// lzNibbleExt marks an extended length nibble.
	lzNibbleExt = 15
	// lzMaxExpand bounds the decode expansion: one extension byte can
	// add at most 255 match bytes, so n > lzMaxExpand*len(src) is
	// structurally impossible and rejected before allocating.
	lzMaxExpand = 255
)

// lzHash is Fibonacci hashing of a 4-byte seed.
//
//scdc:inline
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

//scdc:inline
func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// lzReadLen reads a 255-run length extension starting at src[i],
// returning the accumulated value and the new cursor. The value is
// capped against max so hostile runs cannot overflow.
//
//scdc:inline
func lzReadLen(src []byte, i, max int) (int, int, bool) {
	v := 0
	for i < len(src) {
		b := src[i]
		i++
		v += int(b)
		if v > max {
			return 0, 0, false
		}
		if b < 255 {
			return v, i, true
		}
	}
	return 0, 0, false
}

// lzDecompress decodes an lz/2 sequence stream into exactly n bytes.
// Every structural failure wraps verdict.ErrCorrupt; the output is
// allocated only after the expansion cap admits n.
func lzDecompress(src []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: lossless: negative length", verdict.ErrCorrupt)
	}
	// A sequence byte can contribute at most lzMaxExpand output bytes
	// (a 255-run extension byte), so a lying header fails before the
	// allocation it was hoping to force.
	if int64(n) > lzMaxExpand*int64(len(src))+lzNibbleExt {
		return nil, fmt.Errorf("%w: lossless: declared size %d impossible for %d input bytes", verdict.ErrCorrupt, n, len(src))
	}
	out := make([]byte, n)
	if err := lzDecompressInto(out, src); err != nil {
		return nil, err
	}
	return out, nil
}

// lzDecompressInto decodes src into exactly len(dst) bytes. It is the
// shard-level decode kernel: the sharded container hands each shard a
// subslice of the final output so shards decode in place and in
// parallel with zero copies.
//
//scdc:hot
//scdc:noalloc
func lzDecompressInto(dst, src []byte) error {
	n := len(dst)
	i, o := 0, 0
	for {
		if i >= len(src) {
			return fmt.Errorf("%w: lossless: truncated token", verdict.ErrCorrupt)
		}
		tok := src[i]
		i++
		lit := int(tok >> 4)
		if lit == lzNibbleExt {
			var ok bool
			lit, i, ok = lzReadLen(src, i, n)
			if !ok {
				return fmt.Errorf("%w: lossless: bad literal extension", verdict.ErrCorrupt)
			}
			lit += lzNibbleExt
		}
		if lit > len(src)-i || lit > n-o {
			return fmt.Errorf("%w: lossless: literal run exceeds bounds", verdict.ErrCorrupt)
		}
		copy(dst[o:o+lit], src[i:i+lit])
		i += lit
		o += lit
		if o == n {
			if i != len(src) {
				return fmt.Errorf("%w: lossless: trailing bytes after output filled", verdict.ErrCorrupt)
			}
			return nil
		}

		if len(src)-i < 2 {
			return fmt.Errorf("%w: lossless: truncated offset", verdict.ErrCorrupt)
		}
		off := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		if off == 0 || off > o {
			return fmt.Errorf("%w: lossless: match offset out of range", verdict.ErrCorrupt)
		}
		mlen := int(tok & lzNibbleExt)
		if mlen == lzNibbleExt {
			ext, ni, ok := lzReadLen(src, i, n)
			if !ok {
				return fmt.Errorf("%w: lossless: bad match extension", verdict.ErrCorrupt)
			}
			mlen += ext
			i = ni
		}
		mlen += lzMinMatch
		if mlen > n-o {
			return fmt.Errorf("%w: lossless: match exceeds output length", verdict.ErrCorrupt)
		}
		if mlen <= off {
			copy(dst[o:o+mlen], dst[o-off:])
			o += mlen
			continue
		}
		// Overlapping match: the copy repeats its own output.
		s := o - off
		for j := 0; j < mlen; j++ {
			dst[o+j] = dst[s+j]
		}
		o += mlen
	}
}
