package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/entropy"
	"scdc/internal/parallel"
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
// directory and the shard count depends only on the caller's argument —
// never on the worker count — keeping streams byte-identical across
// parallelism levels.

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
// given shard count to dst, encoding shard bodies on up to workers
// goroutines.
func EncodeBytesTo(dst, src []byte, shards, workers int) []byte {
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
	dst = encodeShards(dst, syms, &cs, shards, workers)
	byteSymsPool.Put(sp)
	return dst
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

// DecodeBytesInto decodes a byte-alphabet Huffman stream into exactly
// dst, fanning shard bodies across up to workers goroutines. The
// stream's declared sample count must equal len(dst), and every
// directory claim is checked against the stream before any decoding
// (and before any allocation proportional to a claim).
func DecodeBytesInto(dst, data []byte, workers int) error {
	if len(data) < 2 || data[0] != byteMarker || data[1] != byteVersion {
		return fmt.Errorf("%w: huffman: bad byte-stream header", verdict.ErrCorrupt)
	}
	data = data[2:]
	nsamp, c := binary.Uvarint(data)
	if c <= 0 {
		return fmt.Errorf("%w: huffman: bad sample count", verdict.ErrCorrupt)
	}
	data = data[c:]
	if nsamp != uint64(len(dst)) {
		return fmt.Errorf("%w: huffman: declared count %d, want %d", verdict.ErrCorrupt, nsamp, len(dst))
	}
	if nsamp == 0 {
		if len(data) != 0 {
			return fmt.Errorf("%w: huffman: %d trailing bytes", verdict.ErrCorrupt, len(data))
		}
		return nil
	}
	if len(data) < byteTablePacked {
		return fmt.Errorf("%w: huffman: truncated code table", verdict.ErrCorrupt)
	}
	syms, lengths, err := parseByteTable(data[:byteTablePacked])
	if err != nil {
		return err
	}
	data = data[byteTablePacked:]

	dir, err := shard.ParseDir(data, len(dst), false, len(dst))
	if err != nil {
		return err
	}

	d := newDecoder(syms, lengths, multiPays(len(dst), len(data)))
	defer d.release()
	return parallel.ForEach(len(dir), workers, func(_, i int) error {
		sh := dir[i]
		sp := getByteSyms(sh.N)
		defer byteSymsPool.Put(sp)
		if err := d.decodeBody(sh.Body, *sp); err != nil {
			return err
		}
		// Symbols come from the byte-indexed table, so the narrowing
		// cast cannot truncate.
		o := dst[sh.Off : sh.Off+sh.N]
		for j, s := range *sp {
			o[j] = byte(s)
		}
		return nil
	})
}
