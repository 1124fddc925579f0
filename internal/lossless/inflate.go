package lossless

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// An RFC 1951 (DEFLATE) decoder that inflates a flate body from its byte
// slice straight into the exact-size output the stream header declares.
//
// Bits are read LSB first from a 64-bit buffer. Every code decodes by one
// lookup of the next root bits in a canonical table, or two when the code
// is longer than the root: the primary entry then points at a
// second-level table indexed by the code's remaining bits. While at least
// 8 input bytes and fastOut output bytes remain, fast refills the buffer
// to 56+ bits with one 8-byte load per step — enough for three literals,
// or for one length, its extra bits, a distance code and its extra bits —
// and tests neither buffer's end per symbol. Everything else (block
// headers, code-length tables, stored blocks, the last bytes of either
// buffer, end-of-block and every rejection) goes through the checked
// per-symbol path.
//
// It accepts exactly the streams compress/flate's reader accepts when
// that reader must yield exactly len(dst) bytes and then io.EOF
// (FuzzInflate): codes must be complete, except the single one-bit code
// zlib writes for a lone distance; a tree with no codes is legal until a
// symbol is read from it; at most 286 literal/length and 30 distance
// codes; a distance may not reach before the output start; and the body
// must end its final block with exactly len(dst) bytes written. Bytes
// after the final block are ignored, as there.

const (
	litRootBits  = 11
	distRootBits = 8
	clBits       = 7

	// The tables hold the root level and every second-level table. A
	// complete code spends at least k+1 codes on a second-level table of
	// 2^k entries, so 286 literal/length codes need at most 912 entries
	// past the 2048 of the root, and 30 distance codes at most 416 past
	// 256. Powers of two let the hot loop mask its indexes in range.
	litTableSize  = 1 << 12
	distTableSize = 1 << 10

	maxLitCodes  = 286
	maxDistCodes = 30

	// fastOut is the output room one fast step may write: a 258-byte match
	// copied in 8-byte words.
	fastOut = 258 + 8
)

// A table entry packs, low to high: the code's length in bits (bits 0–4);
// the extra-bit count of a length or distance — or a pointer's
// second-level index width — (bits 8–11); the kind flags; and the value
// (bits 16–31): a literal byte, a base length or distance, a code-length
// symbol, or a second-level table's offset. A plain length or distance
// entry carries no flag.
const (
	eLenMask = 0x1f
	eLit     = 1 << 12
	eEnd     = 1 << 13
	eSub     = 1 << 14
	eBad     = 1 << 15 // no symbol: a hole of an incomplete code, or one RFC 1951 reserves
)

var (
	// litBase, distBase and clBase are the table entries of each symbol
	// before its code length is added.
	litBase, distBase, clBase = baseEntries()

	// fixedLit and fixedDist decode the fixed codes of RFC 1951 §3.2.6.
	fixedLit, fixedDist = fixedTables()

	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func baseEntries() (lit [288]uint32, dist [32]uint32, cl [19]uint32) {
	for s := range 256 {
		lit[s] = eLit | uint32(s)<<16
	}
	lit[256] = eEnd
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = base<<16 | extra<<8
		base += 1 << extra
	}
	lit[285] = 258 << 16
	lit[286], lit[287] = eBad, eBad
	base = 1
	for s := range maxDistCodes {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		dist[s] = base<<16 | extra<<8
		base += 1 << extra
	}
	dist[30], dist[31] = eBad, eBad
	for s := range cl {
		cl[s] = uint32(s) << 16
	}
	return lit, dist, cl
}

func fixedTables() (*[litTableSize]uint32, *[distTableSize]uint32) {
	lit, dist := new([litTableSize]uint32), new([distTableSize]uint32)
	build(lit[:], fixedLitLens[:], litBase[:], litRootBits)
	var lens [32]uint8
	for s := range lens {
		lens[s] = 5
	}
	build(dist[:], lens[:], distBase[:], distRootBits)
	return lit, dist
}

// build fills t with the decode table of the canonical code whose code
// lengths are lengths, root bits deep with second-level tables behind.
// It reports false for an over-subscribed code and for an incomplete one
// other than the empty code and the single one-bit code, which
// compress/flate accepts too; their holes decode as eBad.
func build(t []uint32, lengths []uint8, base []uint32, root uint) bool {
	var count, start [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	left, total := 1, 0
	for l := 1; l < 16; l++ {
		left = left<<1 - int(count[l])
		if left < 0 {
			return false
		}
		start[l] = start[l-1] + count[l-1]
		total += int(count[l])
	}
	if left != 0 && total > 1 || total == 1 && count[1] != 1 {
		return false
	}
	// The symbols in canonical order: by code length, then by symbol.
	var sorted [maxLitCodes + 2]uint16
	for s, l := range lengths {
		if l != 0 {
			sorted[start[l]] = uint16(s)
			start[l]++
		}
	}
	size := 1 << root
	if total <= 1 {
		for i := range size {
			t[i] = eBad
		}
	}
	// The root level, one code length at a time: the table is 2^l
	// entries wide while the codes of length l are written, one entry
	// each, and doubles before the next length, so a code's entry repeats
	// at every index whose low l bits are its reversed code. A complete
	// code covers every index, so no entry keeps an older table's value.
	i, code := 0, 0
	for l, end := 1, 2; ; l, end = l+1, end<<1 {
		for range count[l] {
			s := sorted[i]
			t[bits.Reverse16(uint16(code))>>(16-l)] = base[s] | uint32(l)
			code++
			i++
		}
		if uint(l) == root {
			break
		}
		copy(t[end:2*end], t[:end])
		code <<= 1
	}
	// Longer codes. Canonical codes are in lexicographic order, so the
	// codes under one root prefix are adjacent, and they fill its subtree
	// before the next prefix starts: its second-level table is as deep as
	// the codes still to come need to fill it.
	off, mask := uint32(size), uint32(size-1)
	p, sub, k := ^uint32(0), uint32(0), uint(0)
	for l := root + 1; l < 16; l++ {
		code <<= 1
		for ; count[l] > 0; count[l]-- {
			r := uint32(bits.Reverse16(uint16(code))) >> (16 - l)
			code++
			if r&mask != p {
				p = r & mask
				k = l - root
				for left := 1<<k - int(count[l]); left > 0 && root+k < 15; {
					k++
					left = left<<1 - int(count[root+k])
				}
				if int(off)+1<<k > len(t) {
					return false
				}
				t[p] = eSub | off<<16 | uint32(k)<<8
				sub = off
				off += 1 << k
			}
			e := base[sorted[i]] | uint32(l)
			i++
			for j := r >> root; j < 1<<k; j += 1 << (l - root) {
				t[sub+j] = e
			}
		}
	}
	return true
}

// inflater is the per-call table storage of dynamic blocks, pooled so a
// decode allocates nothing past its output.
type inflater struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	cl   [1 << clBits]uint32
	lens [maxLitCodes + maxDistCodes]uint8
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the DEFLATE stream src into exactly dst.
func (f *inflater) inflate(dst, src []byte) error {
	r := bitReader{src: src}
	o := 0
	for final := uint64(0); final == 0; {
		h, err := r.bits(3)
		if err != nil {
			return err
		}
		final = h & 1
		switch h >> 1 {
		case 0:
			o, err = r.stored(dst, o)
		case 1:
			o, err = r.codes(dst, o, fixedLit, fixedDist)
		case 2:
			if err = f.readTables(&r); err == nil {
				o, err = r.codes(dst, o, &f.lit, &f.dist)
			}
		default:
			err = errors.New("invalid block type")
		}
		if err != nil {
			return err
		}
	}
	if o != len(dst) {
		return errors.New("stream ends short of its declared length")
	}
	return nil
}

// readTables reads a dynamic block's code lengths and builds its
// literal/length and distance tables.
func (f *inflater) readTables(r *bitReader) error {
	h, err := r.bits(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return errors.New("too many length or distance codes")
	}
	var cl [19]uint8
	for _, s := range clOrder[:nclen] {
		v, err := r.bits(3)
		if err != nil {
			return err
		}
		cl[s] = uint8(v)
	}
	if !build(f.cl[:], cl[:], clBase[:], clBits) {
		return errors.New("invalid code lengths code")
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := r.sym(f.cl[:], clBits)
		if err != nil {
			return err
		}
		v := uint8(e >> 16)
		if v < 16 {
			lens[i] = v
			i++
			continue
		}
		var fill uint8
		var n uint64
		switch v {
		case 16:
			if i == 0 {
				return errors.New("repeat with no previous length")
			}
			fill = lens[i-1]
			n, err = r.bits(2)
			n += 3
		case 17:
			n, err = r.bits(3)
			n += 3
		default:
			n, err = r.bits(7)
			n += 11
		}
		if err != nil {
			return err
		}
		if n > uint64(len(lens)-i) {
			return errors.New("code lengths repeat past the last code")
		}
		for range n {
			lens[i] = fill
			i++
		}
	}
	if !build(f.lit[:], lens[:nlit], litBase[:nlit], litRootBits) ||
		!build(f.dist[:], lens[nlit:], distBase[:ndist], distRootBits) {
		return errors.New("invalid literal/length or distance code")
	}
	return nil
}

// bitReader is the cursor over a flate body: b holds the stream's next n
// bits, LSB first. Above them b holds zeros or, left by fast's 8-byte
// loads, the stream's own following bits, which every refill ORs over
// with the same values; so once src is spent a lookup is zero-padded.
type bitReader struct {
	src []byte
	in  int // the next byte of src that n does not count
	b   uint64
	n   uint
}

// refill tops b up to at least 56 bits, or to every bit left in src:
// with one 8-byte load, as fast does, while 8 bytes remain.
func (r *bitReader) refill() {
	if len(r.src)-r.in >= 8 {
		r.b |= binary.LittleEndian.Uint64(r.src[r.in:]) << (r.n & 63)
		r.in += int((63 - r.n) >> 3 & 7)
		r.n |= 56
		return
	}
	for r.n <= 56 && r.in < len(r.src) {
		r.b |= uint64(r.src[r.in]) << r.n
		r.in++
		r.n += 8
	}
}

// bits consumes the next k <= 32 bits.
func (r *bitReader) bits(k uint) (uint64, error) {
	if r.n < k {
		r.refill()
		if r.n < k {
			return 0, errors.New("unexpected EOF")
		}
	}
	v := r.b & (1<<k - 1)
	r.b >>= k
	r.n -= k
	return v, nil
}

// sym consumes one code of table t, whose root is root bits deep.
func (r *bitReader) sym(t []uint32, root uint) (uint32, error) {
	r.refill()
	e := t[r.b&(1<<root-1)]
	if e&eSub != 0 {
		e = t[e>>16+uint32(r.b>>root)&(1<<(e>>8&15)-1)]
	}
	if e&eBad != 0 {
		return 0, errors.New("invalid code")
	}
	l := uint(e & eLenMask)
	if l > r.n {
		return 0, errors.New("unexpected EOF")
	}
	r.b >>= l
	r.n -= l
	return e, nil
}

// stored copies a stored block to dst[o:] and returns the new output
// position.
func (r *bitReader) stored(dst []byte, o int) (int, error) {
	// The block starts at the next byte boundary; the whole bytes b still
	// holds go back to src.
	r.in -= int(r.n >> 3)
	r.b, r.n = 0, 0
	if len(r.src)-r.in < 4 {
		return o, errors.New("unexpected EOF")
	}
	n := int(binary.LittleEndian.Uint16(r.src[r.in:]))
	if binary.LittleEndian.Uint16(r.src[r.in+2:]) != ^uint16(n) {
		return o, errors.New("stored block length does not match its complement")
	}
	r.in += 4
	if n > len(r.src)-r.in {
		return o, errors.New("unexpected EOF")
	}
	if n > len(dst)-o {
		return o, errors.New("stream runs past its declared length")
	}
	o += copy(dst[o:], r.src[r.in:r.in+n])
	r.in += n
	return o, nil
}

// codes decodes one Huffman-coded block to dst[o:] with tables lt and dt
// and returns the new output position: fast takes every step it can, and
// this loop the rest, each with every check.
func (r *bitReader) codes(dst []byte, o int, lt *[litTableSize]uint32, dt *[distTableSize]uint32) (int, error) {
	for {
		o = r.fast(dst, o, lt, dt)
		e, err := r.sym(lt[:], litRootBits)
		if err != nil {
			return o, err
		}
		if e&eEnd != 0 {
			return o, nil
		}
		if e&eLit != 0 {
			if o == len(dst) {
				return o, errors.New("stream runs past its declared length")
			}
			dst[o] = byte(e >> 16)
			o++
			continue
		}
		x, err := r.bits(uint(e >> 8 & 15))
		if err != nil {
			return o, err
		}
		length := int(e>>16) + int(x)
		d, err := r.sym(dt[:], distRootBits)
		if err != nil {
			return o, err
		}
		y, err := r.bits(uint(d >> 8 & 15))
		if err != nil {
			return o, err
		}
		dist := int(d>>16) + int(y)
		if dist > o {
			return o, errors.New("distance reaches before the output start")
		}
		if length > len(dst)-o {
			return o, errors.New("stream runs past its declared length")
		}
		for i := range length {
			dst[o+i] = dst[o-dist+i]
		}
		o += length
	}
}

// fast decodes literals and matches of one block while at least 8 bytes
// of src and fastOut bytes of dst remain, and returns the new output
// position. It stops before any other symbol — end of block, a hole, a
// distance past the output start — and leaves it to codes' checked step.
//
//scdc:hot
//scdc:noalloc
func (r *bitReader) fast(dst []byte, o int, lt *[litTableSize]uint32, dt *[distTableSize]uint32) int {
	const (
		litMask  = 1<<litRootBits - 1
		distMask = 1<<distRootBits - 1
	)
	b, n := r.b, r.n
	rest := r.src[r.in:]
	for len(rest) >= 8 && len(dst)-o >= fastOut {
		// One load tops b up to 56–63 bits: three literal codes, or a
		// length code, 5 extra bits, a distance code and 13 extra bits.
		b |= binary.LittleEndian.Uint64(rest) << (n & 63)
		rest = rest[(63-n)>>3&7:]
		n |= 56
		e := lt[b&litMask]
		if e&eLit != 0 {
			b >>= e & eLenMask
			n -= uint(e & eLenMask)
			dst[o] = byte(e >> 16)
			o++
			if e = lt[b&litMask]; e&eLit != 0 {
				b >>= e & eLenMask
				n -= uint(e & eLenMask)
				dst[o] = byte(e >> 16)
				o++
				if e = lt[b&litMask]; e&eLit != 0 {
					b >>= e & eLenMask
					n -= uint(e & eLenMask)
					dst[o] = byte(e >> 16)
					o++
				}
			}
			// Anything but a root-level literal waits for the next refill.
			continue
		}
		if e&eSub != 0 {
			e = lt[(e>>16+uint32(b>>litRootBits)&(1<<(e>>8&15)-1))&(litTableSize-1)]
			if e&eLit != 0 {
				b >>= e & eLenMask
				n -= uint(e & eLenMask)
				dst[o] = byte(e >> 16)
				o++
				continue
			}
		}
		if e&(eEnd|eBad) != 0 {
			break
		}
		b0, n0 := b, n
		b >>= e & eLenMask
		n -= uint(e & eLenMask)
		length := int(e>>16) + int(b&(1<<(e>>8&15)-1))
		b >>= e >> 8 & 15
		n -= uint(e >> 8 & 15)
		d := dt[b&distMask]
		if d&eSub != 0 {
			d = dt[(d>>16+uint32(b>>distRootBits)&(1<<(d>>8&15)-1))&(distTableSize-1)]
		}
		b >>= d & eLenMask
		n -= uint(d & eLenMask)
		dist := int(d>>16) + int(b&(1<<(d>>8&15)-1))
		b >>= d >> 8 & 15
		n -= uint(d >> 8 & 15)
		if d&eBad != 0 || dist > o {
			b, n = b0, n0
			break
		}
		s := o - dist
		if dist >= 8 {
			// Word copies: each reads 8 bytes that end before the word it
			// writes, and the last may write up to 7 bytes past the match,
			// inside the fastOut room, which later output overwrites.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(dst[o+i:], binary.LittleEndian.Uint64(dst[s+i:]))
			}
		} else {
			for i := range length {
				dst[o+i] = dst[s+i]
			}
		}
		o += length
	}
	r.b, r.n, r.in = b, n, len(r.src)-len(rest)
	return o
}
