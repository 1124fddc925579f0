package lossless

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"
	"sync"

	"scdc/internal/verdict"
)

// The LZ codec is a byte-oriented LZ77 in the LZ4 mold ("lz/2"),
// replacing the seed-era uvarint token stream with a kernelized
// sequence format built for branch-light decode:
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
//
// The encoder is a hash-chain matcher over 4-byte seeds with 64-bit
// unaligned probes (binary.LittleEndian.Uint64 compiles to a single
// load) and XOR+TrailingZeros64 match extension; its tables are pooled
// so steady-state compression allocates nothing.

const (
	lzMinMatch = 4
	lzHashBits = 16
	lzMaxChain = 16
	// lzWindow is the largest encodable match offset (2-byte field).
	lzWindow = 1<<16 - 1
	// lzNibbleExt marks an extended length nibble.
	lzNibbleExt = 15
	// lzTail: the last lzMinMatch+4 bytes are always emitted as
	// literals so 64-bit probes never read past the buffer.
	lzTail = lzMinMatch + 4
	// lzMaxExpand bounds the decode expansion: one extension byte can
	// add at most 255 match bytes, so n > lzMaxExpand*len(src) is
	// structurally impossible and rejected before allocating.
	lzMaxExpand = 255
)

// lzTables is the pooled encoder state: hash-bucket heads and the
// per-position chain links.
type lzTables struct {
	head  [1 << lzHashBits]int32
	chain []int32
}

var lzTablePool = sync.Pool{New: func() any { return new(lzTables) }}

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

//scdc:inline
func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// lzMatchLen counts matching bytes between src[a:] and src[b:] (a < b),
// reading at most limit-b bytes, eight at a time.
//
//scdc:hot
//scdc:noalloc
func lzMatchLen(src []byte, a, b, limit int) int {
	n := 0
	for b+n+8 <= limit {
		x := load64(src, a+n) ^ load64(src, b+n)
		if x != 0 {
			return n + mbits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// lzEmitLen appends the 255-run extension encoding of v >= 0.
//
//scdc:inline
func lzEmitLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// lzEmitSeq appends one full sequence: token, length extensions, the
// literal run, and the match offset. mlen >= lzMinMatch.
func lzEmitSeq(dst, lit []byte, mlen, off int) []byte {
	tok := byte(0)
	if len(lit) >= lzNibbleExt {
		tok = lzNibbleExt << 4
	} else {
		tok = byte(len(lit)) << 4
	}
	m := mlen - lzMinMatch
	if m >= lzNibbleExt {
		tok |= lzNibbleExt
	} else {
		tok |= byte(m)
	}
	dst = append(dst, tok)
	if len(lit) >= lzNibbleExt {
		dst = lzEmitLen(dst, len(lit)-lzNibbleExt)
	}
	dst = append(dst, lit...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(off))
	if m >= lzNibbleExt {
		dst = lzEmitLen(dst, m-lzNibbleExt)
	}
	return dst
}

// lzEmitFinal appends the terminal literal-only sequence.
func lzEmitFinal(dst, lit []byte) []byte {
	if len(lit) >= lzNibbleExt {
		dst = append(dst, lzNibbleExt<<4)
		dst = lzEmitLen(dst, len(lit)-lzNibbleExt)
	} else {
		dst = append(dst, byte(len(lit))<<4)
	}
	return append(dst, lit...)
}

// lzCompress appends the lz/2 sequence stream for src to dst. The
// encoder is greedy: at each position the hash chain is probed up to
// lzMaxChain times and the longest match wins; positions inside an
// emitted match are inserted every other byte so later matches can
// reference the region.
//
//scdc:hot
func lzCompress(dst, src []byte) []byte {
	if len(src) <= lzTail {
		return lzEmitFinal(dst, src)
	}
	t := lzTablePool.Get().(*lzTables)
	// head entries are positions+1, so the zero value means "empty" and
	// the table clear is a plain memset.
	clear(t.head[:])
	if cap(t.chain) < len(src) {
		t.chain = make([]int32, len(src)+len(src)/4)
	}
	chain := t.chain[:len(src)]

	// Greedy parse. limit keeps every 64-bit probe in bounds; the tail
	// rides out with the final literal run.
	limit := len(src) - lzTail
	litStart := 0
	i := 0
	for i <= limit {
		seed := load32(src, i)
		h := lzHash(seed)
		cand := int(t.head[h]) - 1
		t.head[h] = int32(i + 1)
		chain[i] = int32(cand + 1)

		bestLen, bestOff := 0, 0
		minPos := i - lzWindow
		for tries := lzMaxChain; cand >= 0 && cand >= minPos && tries > 0; tries-- {
			if load32(src, cand) == seed {
				l := lzMatchLen(src, cand, i, len(src))
				if l > bestLen {
					bestLen, bestOff = l, i-cand
				}
			}
			cand = int(chain[cand]) - 1
		}

		if bestLen < lzMinMatch {
			i++
			continue
		}
		if i+bestLen > limit {
			// Never let a match swallow the guaranteed literal tail.
			bestLen = limit - i
			if bestLen < lzMinMatch {
				i++
				continue
			}
		}
		dst = lzEmitSeq(dst, src[litStart:i], bestLen, bestOff)
		end := i + bestLen
		for j := i + 2; j < end && j <= limit; j += 2 {
			hj := lzHash(load32(src, j))
			chain[j] = t.head[hj]
			t.head[hj] = int32(j + 1)
		}
		i = end
		litStart = i
	}
	dst = lzEmitFinal(dst, src[litStart:])
	lzTablePool.Put(t)
	return dst
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
