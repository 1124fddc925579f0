package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/verdict"
)

// Byte-stream sub-format: canonical Huffman over the byte alphabet, the
// body of the decode-only lossless tag 7 (lossless.Huffman). Earlier
// releases wrote it; no encoder does now, and DecodeBytesInto still reads
// it. The alphabet is fixed, so the table is a flat 256-entry
// code-length vector and canonical order (length ascending, then symbol
// ascending) reconstructs the codes.
//
// Layout:
//
//	0xB7                      marker (distinct from both legacy streams,
//	                          which open with uvarint(hdrLen), and the
//	                          sharded marker 0x00)
//	0x01                      sub-format version
//	uvarint(nsamp)            total byte count; 0 ends the stream here
//	192 bytes                 code length per symbol, 6 bits each in
//	                          symbol order, 0 = absent
//	shard directory + bodies  internal/shard
//
// Shards share the table; the writer chose their count.

const (
	byteMarker  = 0xB7
	byteVersion = 0x01
	// byteTableLen is the alphabet size; the code-length vector packs 6
	// bits per symbol into byteTablePacked stream bytes.
	byteTableLen    = 256
	byteTablePacked = byteTableLen * 6 / 8
)

// byteSymsPool recycles the int32 decode-scratch buffers.
var byteSymsPool = sync.Pool{New: func() any { return new([]int32) }}

func getByteSyms(n int) *[]int32 {
	sp := byteSymsPool.Get().(*[]int32)
	if cap(*sp) < n {
		*sp = make([]int32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// parseByteTable rebuilds the canonical (symbol, length) lists from the
// packed 192-byte length vector and, like parseTableHeader, proves the
// code space is not over-subscribed (checkCanonical) before the decoder
// that trusts it exists.
func parseByteTable(packed []byte) (syms []int32, lengths []uint8, err error) {
	var table [byteTableLen]byte
	for g := 0; g < byteTableLen/4; g++ {
		v := uint32(packed[3*g])<<16 | uint32(packed[3*g+1])<<8 | uint32(packed[3*g+2])
		table[4*g] = byte(v >> 18 & 63)
		table[4*g+1] = byte(v >> 12 & 63)
		table[4*g+2] = byte(v >> 6 & 63)
		table[4*g+3] = byte(v & 63)
	}
	ntab, maxLen := 0, 0
	for _, l := range table {
		if l != 0 {
			ntab++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	if ntab == 0 {
		return nil, nil, fmt.Errorf("%w: huffman: empty code table", verdict.ErrCorrupt)
	}
	syms = make([]int32, 0, ntab)
	lengths = make([]uint8, 0, ntab)
	for l := 1; l <= maxLen; l++ {
		for s := 0; s < byteTableLen; s++ {
			if int(table[s]) == l {
				syms = append(syms, int32(s))
				lengths = append(lengths, uint8(l))
			}
		}
	}
	if err := checkCanonical(lengths); err != nil {
		return nil, nil, err
	}
	return syms, lengths, nil
}

// parseBytes reads the header of a byte-alphabet Huffman stream that
// must declare n bytes into a block, checked as an index block is
// (block.check). An empty stream ends at its count: its block has n = 0.
func parseBytes(data []byte, n int) (block, error) {
	var b block
	if len(data) < 2 || data[0] != byteMarker || data[1] != byteVersion {
		return b, fmt.Errorf("%w: huffman: bad byte-stream header", verdict.ErrCorrupt)
	}
	data = data[2:]
	nsamp, c := binary.Uvarint(data)
	if c <= 0 {
		return b, fmt.Errorf("%w: huffman: bad sample count", verdict.ErrCorrupt)
	}
	data = data[c:]
	if nsamp != uint64(n) {
		return b, fmt.Errorf("%w: huffman: declared count %d, want %d", verdict.ErrCorrupt, nsamp, n)
	}
	if nsamp == 0 {
		if len(data) != 0 {
			return b, fmt.Errorf("%w: huffman: %d trailing bytes", verdict.ErrCorrupt, len(data))
		}
		return b, nil
	}
	if len(data) < byteTablePacked {
		return b, fmt.Errorf("%w: huffman: truncated code table", verdict.ErrCorrupt)
	}
	var err error
	if b.syms, b.lengths, err = parseByteTable(data[:byteTablePacked]); err != nil {
		return b, err
	}
	b.n, b.m, b.body = nsamp, nsamp, data[byteTablePacked:]
	return b, b.check(true)
}

// DecodeBytesInto decodes a byte-alphabet Huffman stream into exactly
// dst. The stream's declared sample count must equal len(dst), and every
// directory claim is checked against the stream before any decoding
// (and before any allocation proportional to a claim).
func DecodeBytesInto(dst, data []byte) error {
	b, err := parseBytes(data, len(dst))
	if err != nil || b.n == 0 {
		return err
	}
	sp := getByteSyms(len(dst))
	defer byteSymsPool.Put(sp)
	if err := b.decode(*sp, multiPays(len(dst), len(b.body))); err != nil {
		return err
	}
	// Symbols come from the byte-indexed table, so the narrowing cast
	// cannot truncate.
	for i, s := range *sp {
		dst[i] = byte(s)
	}
	return nil
}
