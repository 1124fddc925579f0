package lossless

import (
	"fmt"

	"scdc/internal/huffman"
	"scdc/internal/shard"
	"scdc/internal/verdict"
)

// Sharded lossless container (codec tag 4): the plaintext is split into
// K contiguous byte ranges that compress and decompress independently,
// so Auto can pick a codec per range.
//
// Layout (after the shared one-byte codec tag and uvarint plaintext
// length every lossless stream carries): the tagged shard directory of
// internal/shard — per shard the inner codec (none/flate/huffman; lz in
// streams earlier releases wrote), its plaintext bytes and its compressed
// bytes — then the K raw codec bodies, with no per-shard tag/length
// prefix.
//
// The shard split depends only on len(src), and each shard is
// compressed independently. Shards whose compressed body would not beat
// the plaintext are stored (codec none), bounding expansion.
// Every directory field is validated against the stream before the
// output is allocated: a lying shard count, length sum or body extent
// fails with verdict.ErrCorrupt first.

const (
	// shardTargetBytes is the plaintext size one shard aims for: big
	// enough that per-shard flate reset and directory overhead are
	// noise (<<1% ratio), small enough that Auto's per-shard pick
	// follows the plaintext's regions.
	shardTargetBytes = 128 << 10
	// shardMinBytes is the smallest plaintext worth sharding at all;
	// below 2x this the container falls back to the plain format.
	shardMinBytes = 32 << 10
	// maxShardCount bounds the directory against pathological inputs.
	maxShardCount = 1024
)

// ShardCount returns the deterministic shard count CompressSharded
// uses for an n-byte plaintext: ~n/shardTargetBytes, 1 when n is too
// small to shard.
func ShardCount(n int) int {
	if n < 2*shardMinBytes {
		return 1
	}
	k := (n + shardTargetBytes - 1) / shardTargetBytes
	if k < 2 {
		k = 2
	}
	if k > maxShardCount {
		k = maxShardCount
	}
	return k
}

// CompressSharded encodes src as a sharded lossless container when it
// is big enough to split; smaller inputs fall back to the plain
// single-body format (both decode through Decompress). c selects the
// inner codec; Auto picks flate, Huffman or store per shard from a
// sampled size estimate. The shards are compressed one after another on
// the calling goroutine; the third argument, a worker count, is ignored.
func CompressSharded(c Codec, src []byte, _ int) ([]byte, error) {
	if c == Sharded {
		return nil, fmt.Errorf("%w: lossless: sharded container needs an inner codec", verdict.ErrBadOptions)
	}
	k := ShardCount(len(src))
	if k <= 1 || (c != Flate && c != Huffman && c != Auto) {
		// Compress stores None/Store and rejects LZ and unknown codecs.
		return Compress(c, src)
	}
	if c == Auto && pickCodec(src) == Huffman {
		c = Huffman
	}
	if c == Huffman {
		// The Huffman byte sub-format shards internally under one shared
		// code table (huff.go); wrapping it in the container would charge
		// a fresh 256-byte code-length table per shard for nothing. Auto
		// resolves on the whole buffer above for the same reason:
		// per-shard picks would price per-shard tables into an otherwise
		// clear Huffman win.
		return huffCompressBody(header(Huffman, len(src), len(src)/2+320), src), nil
	}

	n := len(src)
	dir := make([]shard.Shard, k)
	defer shard.Release(dir)
	for i := range dir {
		part := src[i*n/k : (i+1)*n/k]
		ci := c
		if ci == Auto {
			ci = pickCodec(part)
		}
		b := shard.GetBuf()
		switch ci {
		case Flate:
			b.B = flateCompressBody(b.B, part)
		case Huffman:
			b.B = huffCompressBody(b.B, part)
		}
		// Store-fallback: a body that cannot beat the plaintext is
		// stored verbatim, so a shard never expands past its plaintext.
		body := b.B
		if ci == None || len(body) >= len(part) {
			ci, body = None, part
		}
		dir[i] = shard.Shard{Tag: byte(ci), N: len(part), Body: body, Buf: b}
	}
	return shard.AppendDir(header(Sharded, n, n/2+8*k), dir, true), nil
}

// decodeSharded decodes the sharded container body (everything after
// the codec tag and the uvarint plaintext length, which the caller has
// already bounded against maxOut), one shard after another. Every
// directory claim (shard.ParseDir) and every inner codec tag is checked
// before the n-byte output is allocated.
func decodeSharded(data []byte, n int) ([]byte, error) {
	// No inner codec expands further than DEFLATE, so the bytes present
	// bound the plaintext whatever the directory says.
	if uint64(n) > flateMaxExpand*uint64(len(data))+64 {
		return nil, fmt.Errorf("%w: lossless: declared size %d impossible for %d input bytes", verdict.ErrCorrupt, n, len(data))
	}
	// The encoder never splits past maxShardCount; a larger directory can
	// only come from a hostile header.
	dir, err := shard.ParseDir(data, n, true, maxShardCount)
	if err != nil {
		return nil, err
	}
	for _, sh := range dir {
		switch Codec(sh.Tag) {
		case None, Flate, LZ, Huffman:
		default:
			return nil, fmt.Errorf("%w: lossless: invalid shard codec %d", verdict.ErrCorrupt, sh.Tag)
		}
	}
	out := make([]byte, n)
	for _, sh := range dir {
		if err := decodeShardBody(Codec(sh.Tag), sh.Body, out[sh.Off:sh.Off+sh.N]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeShardBody decodes one raw codec body into exactly dst. Shards
// decode in place — each gets its subslice of the final output — so
// the container copies nothing.
func decodeShardBody(c Codec, body, dst []byte) error {
	switch c {
	case None:
		if len(body) != len(dst) {
			return fmt.Errorf("%w: lossless: stored shard length mismatch", verdict.ErrCorrupt)
		}
		copy(dst, body)
		return nil
	case Flate:
		return flateDecompressInto(dst, body)
	case LZ:
		return lzDecompressInto(dst, body)
	case Huffman:
		return huffman.DecodeBytesInto(dst, body)
	default:
		return fmt.Errorf("%w: lossless: invalid shard codec %d", verdict.ErrCorrupt, byte(c))
	}
}
