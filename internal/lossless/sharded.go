package lossless

import (
	"fmt"

	"scdc/internal/huffman"
	"scdc/internal/shard"
	"scdc/internal/verdict"
)

// Sharded lossless container (codec tag 4), decode-only: earlier
// releases split the plaintext into K contiguous byte ranges that
// compressed independently, so their Auto option could pick a codec per
// range.
//
// Layout (after the shared one-byte codec tag and uvarint plaintext
// length every lossless stream carries): the tagged shard directory of
// internal/shard — per shard the inner codec (none/flate/lz/huffman), its
// plaintext bytes and its compressed bytes — then the K raw codec bodies,
// with no per-shard tag/length prefix.
//
// Every directory field is validated against the stream before the
// output is allocated: a lying shard count, length sum or body extent
// fails with verdict.ErrCorrupt first.

// maxShardCount bounds the directory against pathological inputs: no
// writer split past it.
const maxShardCount = 1024

// CompressSharded is Compress with Auto read as Flate, kept under the
// name and signature the repository benchmark calls. Compress rejects
// Sharded with the other decode-only codecs. The third argument, a worker
// count, is ignored.
func CompressSharded(c Codec, src []byte, _ int) ([]byte, error) {
	if c == Auto {
		c = Flate
	}
	return Compress(c, src)
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
	// A directory past maxShardCount can only come from a hostile header.
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
