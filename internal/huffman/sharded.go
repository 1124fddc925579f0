package huffman

import (
	"encoding/binary"

	"scdc/internal/entropy"
	"scdc/internal/shard"
)

// Sharded Huffman container: the symbol stream is split into K contiguous
// shards that share one canonical code table, each an independently
// decodable body, at no ratio loss beyond K-1 byte paddings and the small
// shard directory. Both directions run the shards one after another on
// the calling goroutine.
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

// EncodeShardedDist compresses q as shards independent sub-streams under
// one shared code table, from its distribution d = entropy.Analyze(q).
// shards <= 1 (or a stream too small to split) falls back to EncodeDist,
// so the output is always decodable by Decode. The shard split depends
// only on (len(q), shards).
func EncodeShardedDist(q []int32, d *entropy.Dist, shards int) []byte {
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
	return encodeShards(out, q, &cs, shards)
}

// encodeShards encodes syms as k contiguous shards under one code set and
// appends the shard directory and bodies (shard.AppendDir) that close both
// sharded sub-formats. Shard i covers samples [i*n/K, (i+1)*n/K), and
// each body is an independently padded bit stream.
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
