package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/entropy"
	"scdc/internal/shard"
	"scdc/internal/verdict"
)

// Byte-stream sub-format: canonical Huffman over the byte alphabet for
// the lossless back-end (lossless.Huffman). The generic table header
// delta-codes (symbol, length) pairs at ~2.3 bytes per distinct symbol —
// ~600 bytes on a full byte alphabet, a visible fraction of a percent on
// typical entropy-stage payloads. Here the alphabet is fixed, so the
// table is a flat 256-byte code-length vector and canonical order
// (length ascending, then symbol ascending) reconstructs the codes.
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
// Shards share the table, so splitting costs K-1 tail paddings plus the
// directory, and the shard count is the caller's argument.

const (
	byteMarker  = 0xB7
	byteVersion = 0x01
	// byteTableLen is the alphabet size; the code-length vector packs 6
	// bits per symbol into byteTablePacked stream bytes.
	byteTableLen    = 256
	byteTablePacked = byteTableLen * 6 / 8
	// byteMaxLen is the longest code the 6-bit table can record. A code
	// of length L needs ~Fibonacci(L+2) samples, so 63 is unreachable
	// from any real buffer; EncodeBytesTo still depth-limits by halving
	// counts so the encoder is total rather than trusting that bound.
	byteMaxLen = 63
)

// minShardSamples keeps shards large enough that the per-shard padding and
// directory entry are noise relative to the body.
const minShardSamples = 4096

// byteSymsPool recycles the int32 widening/decode-scratch buffers.
var byteSymsPool = sync.Pool{New: func() any { return new([]int32) }}

func getByteSyms(n int) *[]int32 {
	sp := byteSymsPool.Get().(*[]int32)
	if cap(*sp) < n {
		*sp = make([]int32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// EncodeBytesTo appends src as a byte-alphabet Huffman stream of the
// given shard count to dst.
func EncodeBytesTo(dst, src []byte, shards int) []byte {
	dst = append(dst, byteMarker, byteVersion)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}

	sp := getByteSyms(len(src))
	syms := *sp
	for i, b := range src {
		syms[i] = int32(b)
	}
	d := entropy.Analyze(syms)
	table, _ := codeLengths(d)
	// codeLengths is canonical-sorted, so the last entry is the deepest.
	// Halving counts flattens the tree geometrically, so this loop is a
	// few iterations even in theory and zero in practice (see byteMaxLen).
	for table[len(table)-1].len > byteMaxLen {
		for i := range d.Syms {
			d.Syms[i].Count = (d.Syms[i].Count + 1) >> 1
		}
		table, _ = codeLengths(d)
	}
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense)

	var lens [byteTableLen]byte
	for _, sl := range table {
		lens[sl.sym] = byte(sl.len)
	}
	for g := 0; g < byteTableLen/4; g++ {
		v := uint32(lens[4*g])<<18 | uint32(lens[4*g+1])<<12 | uint32(lens[4*g+2])<<6 | uint32(lens[4*g+3])
		dst = append(dst, byte(v>>16), byte(v>>8), byte(v))
	}

	shards = max(1, min(shards, len(src)/minShardSamples))
	dst = encodeShards(dst, syms, &cs, shards)
	byteSymsPool.Put(sp)
	return dst
}

// encodeShards encodes syms as k contiguous shards under one code set and
// appends the shard directory and bodies (shard.AppendDir) that close the
// byte sub-format. Shard i covers samples [i*n/K, (i+1)*n/K), and each
// body is an independently padded bit stream.
func encodeShards(dst []byte, syms []int32, cs *codeSet, k int) []byte {
	n := len(syms)
	dir := make([]shard.Shard, k)
	defer shard.Release(dir)
	for i := range dir {
		part := syms[i*n/k : (i+1)*n/k]
		b := shard.GetBuf()
		b.B = encodeBody(b.B, part, cs)
		dir[i] = shard.Shard{N: len(part), Body: b.B, Buf: b}
	}
	return shard.AppendDir(dst, dir, false)
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
