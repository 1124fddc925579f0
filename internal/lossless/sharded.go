package lossless

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/huffman"
	"scdc/internal/parallel"
	"scdc/internal/verdict"
)

// Sharded lossless container (codec tag 4): the plaintext is split into
// K contiguous byte ranges that compress and decompress independently,
// so the back-end stage parallelizes in both directions the way the
// sharded Huffman sub-format parallelized entropy coding.
//
// Layout (after the shared one-byte codec tag and uvarint plaintext
// length every lossless stream carries):
//
//	uvarint(K)                            shard count, K >= 1
//	K x { byte codec,                     none/flate/lz/huffman
//	      uvarint(rawLen_i),              plaintext bytes of shard i
//	      uvarint(bodyLen_i) }            compressed bytes of shard i
//	K concatenated bodies                 raw codec bodies, no per-shard
//	                                      tag/length prefix
//
// The shard split depends only on len(src) — never on the worker count
// — and each shard is compressed independently, so the container is
// byte-identical across workers. Shards whose compressed body would
// not beat the plaintext are stored (codec none), bounding expansion.
// Every directory field is validated against the stream before the
// output is allocated: a lying shard count, length sum or body extent
// fails with verdict.ErrCorrupt first.

const (
	// shardTargetBytes is the plaintext size one shard aims for: big
	// enough that per-shard flate reset and directory overhead are
	// noise (<<1% ratio), small enough that typical streams fan out
	// across several workers.
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

// shardBuf is a pooled per-shard output buffer that doubles as the
// io.Writer the pooled flate writers compress into.
type shardBuf struct{ b []byte }

func (w *shardBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var shardBufPool = sync.Pool{New: func() any { return new(shardBuf) }}

// CompressSharded encodes src as a sharded lossless container when it
// is big enough to split, compressing shards on up to workers
// goroutines; smaller inputs fall back to the plain single-body format
// (both decode through Decompress). c selects the inner codec; Auto
// picks flate, LZ, Huffman or store per shard from EstimateBytes. The
// output is byte-identical for every worker count.
func CompressSharded(c Codec, src []byte, workers int) ([]byte, error) {
	if c == Sharded {
		return nil, fmt.Errorf("%w: lossless: sharded container needs an inner codec", verdict.ErrBadOptions)
	}
	k := ShardCount(len(src))
	if k <= 1 || c == None || c == Store {
		return Compress(c, src)
	}
	if c == Auto && pickCodec(src) == Huffman {
		c = Huffman
	}
	if c == Huffman {
		// The Huffman byte sub-format shards internally under one shared
		// code table (huff.go), so it parallelizes both directions on its
		// own; wrapping it in the container would charge a fresh 256-byte
		// code-length table per shard for nothing. Auto resolves on the
		// whole buffer above for the same reason: per-shard picks would
		// price per-shard tables into an otherwise clear Huffman win.
		out := make([]byte, 1, len(src)/2+320)
		out[0] = byte(Huffman)
		out = binary.AppendUvarint(out, uint64(len(src)))
		return huffCompressBody(out, src, workers), nil
	}

	n := len(src)
	bufs := make([]*shardBuf, k)
	codecs := make([]Codec, k)
	errs := make([]error, k)
	parallel.ForEach(k, workers, func(i int) {
		lo, hi := i*n/k, (i+1)*n/k
		shard := src[lo:hi]
		ci := c
		if ci == Auto {
			ci = pickCodec(shard)
		}
		sb := shardBufPool.Get().(*shardBuf)
		sb.b = sb.b[:0]
		switch ci {
		case Flate:
			errs[i] = flateCompressBody(sb, shard)
		case LZ:
			sb.b = lzCompress(sb.b, shard)
		case Huffman:
			sb.b = huffCompressBody(sb.b, shard, 1)
		}
		// Store-fallback: a body that cannot beat the plaintext is
		// stored verbatim, so a shard never expands past rawLen.
		if ci != None && len(sb.b) >= len(shard) {
			ci = None
			sb.b = sb.b[:0]
		}
		codecs[i] = ci
		bufs[i] = sb
	})
	for i, err := range errs {
		if err != nil {
			for _, sb := range bufs {
				shardBufPool.Put(sb)
			}
			return nil, fmt.Errorf("lossless: shard %d: %w", i, err)
		}
	}

	out := make([]byte, 0, n/2+16+8*k)
	out = append(out, byte(Sharded))
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(k))
	for i, sb := range bufs {
		lo, hi := i*n/k, (i+1)*n/k
		bodyLen := len(sb.b)
		if codecs[i] == None {
			bodyLen = hi - lo
		}
		out = append(out, byte(codecs[i]))
		out = binary.AppendUvarint(out, uint64(hi-lo))
		out = binary.AppendUvarint(out, uint64(bodyLen))
	}
	for i, sb := range bufs {
		if codecs[i] == None {
			lo, hi := i*n/k, (i+1)*n/k
			out = append(out, src[lo:hi]...)
		} else {
			out = append(out, sb.b...)
		}
		shardBufPool.Put(sb)
	}
	return out, nil
}

// shardDir is one parsed directory entry.
type shardDir struct {
	codec            Codec
	rawOff, rawLen   int
	bodyOff, bodyLen int
}

// decodeSharded decodes the sharded container body (everything after
// the codec tag and the uvarint plaintext length, which the caller has
// already bounded against maxOut), fanning shard decodes across up to
// workers goroutines. Every directory claim is checked against the
// stream before the n-byte output is allocated.
func decodeSharded(data []byte, n int, workers int) ([]byte, error) {
	k64, c := binary.Uvarint(data)
	if c <= 0 {
		return nil, fmt.Errorf("%w: lossless: bad shard count", verdict.ErrCorrupt)
	}
	if k64 == 0 {
		return nil, fmt.Errorf("%w: lossless: zero-shard container", verdict.ErrCorrupt)
	}
	data = data[c:]
	// Each directory entry costs at least 3 bytes (codec byte plus two
	// one-byte uvarints), so the count is bounded by the stream before
	// the directory is allocated.
	if 3*k64 > uint64(len(data)) {
		return nil, fmt.Errorf("%w: lossless: shard count %d exceeds stream", verdict.ErrCorrupt, k64)
	}
	k := int(k64)
	// The encoder never splits past maxShardCount; a larger directory can
	// only come from a hostile header.
	if k > maxShardCount {
		return nil, fmt.Errorf("%w: lossless: shard count %d exceeds limit %d", verdict.ErrCorrupt, k, maxShardCount)
	}

	dir := make([]shardDir, k)
	rawOff, pos := 0, 0
	for s := range dir {
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: lossless: truncated shard directory", verdict.ErrCorrupt)
		}
		cd := Codec(data[pos])
		pos++
		switch cd {
		case None, Flate, LZ, Huffman:
		default:
			return nil, fmt.Errorf("%w: lossless: invalid shard codec %d", verdict.ErrCorrupt, byte(cd))
		}
		rl, c := binary.Uvarint(data[pos:])
		if c <= 0 {
			return nil, fmt.Errorf("%w: lossless: bad shard length", verdict.ErrCorrupt)
		}
		pos += c
		bl, c := binary.Uvarint(data[pos:])
		if c <= 0 {
			return nil, fmt.Errorf("%w: lossless: bad shard body length", verdict.ErrCorrupt)
		}
		pos += c
		if rl == 0 {
			return nil, fmt.Errorf("%w: lossless: empty shard", verdict.ErrCorrupt)
		}
		if rl > uint64(n-rawOff) {
			return nil, fmt.Errorf("%w: lossless: shard lengths exceed declared size %d", verdict.ErrCorrupt, n)
		}
		dir[s] = shardDir{codec: cd, rawOff: rawOff, rawLen: int(rl), bodyLen: int(bl)}
		rawOff += int(rl)
	}
	if rawOff != n {
		return nil, fmt.Errorf("%w: lossless: shard lengths sum to %d, want %d", verdict.ErrCorrupt, rawOff, n)
	}
	bodies := data[pos:]
	bodyOff := 0
	for s := range dir {
		bl := dir[s].bodyLen
		if bl > len(bodies)-bodyOff {
			return nil, fmt.Errorf("%w: lossless: shard bodies exceed stream", verdict.ErrCorrupt)
		}
		dir[s].bodyOff = bodyOff
		bodyOff += bl
	}
	if bodyOff != len(bodies) {
		return nil, fmt.Errorf("%w: lossless: %d trailing body bytes", verdict.ErrCorrupt, len(bodies)-bodyOff)
	}

	out := make([]byte, n)
	errs := make([]error, k)
	parallel.ForEach(k, workers, func(s int) {
		d := dir[s]
		errs[s] = decodeShardBody(d.codec, bodies[d.bodyOff:d.bodyOff+d.bodyLen], out[d.rawOff:d.rawOff+d.rawLen])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeShardBody decodes one raw codec body into exactly dst. Shards
// decode in place — each gets its subslice of the final output — so
// the parallel fan-out copies nothing.
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
		return huffman.DecodeBytesInto(dst, body, 1)
	default:
		return fmt.Errorf("%w: lossless: invalid shard codec %d", verdict.ErrCorrupt, byte(c))
	}
}
