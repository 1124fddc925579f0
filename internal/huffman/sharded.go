package huffman

import (
	"encoding/binary"

	"scdc/internal/entropy"
	"scdc/internal/parallel"
	"scdc/internal/shard"
)

// Sharded Huffman container: the symbol stream is split into K contiguous
// shards that share one canonical code table, so encoding and decoding
// parallelize across shards with zero ratio loss beyond K-1 byte paddings
// and the small shard directory.
//
// Layout:
//
//	0x00                      marker (legacy streams start with
//	                          uvarint(hdrLen) >= 2, so a leading zero byte
//	                          is unambiguous)
//	0x01                      sub-format version
//	uvarint(hdrLen) hdr       shared canonical table header, identical to
//	                          the legacy header (total sample count, table
//	                          size, zigzag delta symbol/length pairs)
//	shard directory + bodies  internal/shard
//
// The byte sub-format (bytes.go) ends in the same directory.

const (
	shardedMarker  = 0x00
	shardedVersion = 0x01
)

// minShardSamples keeps shards large enough that the per-shard padding and
// directory entry are noise relative to the body.
const minShardSamples = 4096

// EncodeSharded compresses q as shards independent sub-streams under one
// shared code table, encoding shard bodies on up to workers goroutines.
// shards <= 1 (or a stream too small to split) falls back to the legacy
// single-body format, so the output is always decodable by Decode.
func EncodeSharded(q []int32, shards, workers int) []byte {
	return EncodeShardedDist(q, entropy.Analyze(q), shards, workers)
}

// EncodeShardedDist is EncodeSharded reusing a distribution already
// computed by entropy.Analyze(q). The shard split depends only on (len(q),
// shards) and each shard body is encoded independently under the shared
// table, so the output is byte-identical across worker counts.
func EncodeShardedDist(q []int32, d *entropy.Dist, shards, workers int) []byte {
	if maxSh := len(q) / minShardSamples; shards > maxSh {
		shards = maxSh
	}
	if shards <= 1 {
		return EncodeDist(q, d)
	}

	table, bodyBits := codeLengths(d)
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense)
	hdr := appendTableHeader(make([]byte, 0, headerCap(table)), len(q), table)

	// Each shard pads its body to a byte and adds two uvarints to the
	// directory.
	out := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(hdr)+int((bodyBits+7)/8)+shards*(1+2*binary.MaxVarintLen64))
	out = append(out, shardedMarker, shardedVersion)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	return encodeShards(out, q, &cs, shards, workers)
}

// encodeShards encodes syms as k contiguous shards under one code set, on
// up to workers goroutines, and appends the shard directory and bodies
// (shard.AppendDir) that close both sharded sub-formats. Shard i covers
// samples [i*n/K, (i+1)*n/K): the split depends only on (n, K), never on
// the worker count, and each body is an independently padded bit stream.
func encodeShards(dst []byte, syms []int32, cs *codeSet, k, workers int) []byte {
	n := len(syms)
	dir := make([]shard.Shard, k)
	defer shard.Release(dir)
	// Encoding cannot fail, so neither can the loop.
	_ = parallel.ForEach(k, workers, func(_, i int) error {
		part := syms[i*n/k : (i+1)*n/k]
		b := shard.GetBuf()
		b.B = encodeBody(b.B, part, cs)
		dir[i] = shard.Shard{N: len(part), Body: b.B, Buf: b}
		return nil
	})
	return shard.AppendDir(dst, dir, false)
}

// decodeShards decodes the bodies of dir into their ranges of out on up to
// workers goroutines.
func (d *decoder) decodeShards(dir []shard.Shard, out []int32, workers int) error {
	return parallel.ForEach(len(dir), workers, func(_, i int) error {
		sh := dir[i]
		return d.decodeBody(sh.Body, out[sh.Off:sh.Off+sh.N])
	})
}
