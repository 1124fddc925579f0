package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/entropy"
	"scdc/internal/parallel"
	"scdc/internal/verdict"
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
//	shard directory + bodies  appendShards / parseShards, below
//
// The byte sub-format (bytes.go) ends in the same directory.

const (
	shardedMarker  = 0x00
	shardedVersion = 0x01
)

// minShardSamples keeps shards large enough that the per-shard padding and
// directory entry are noise relative to the body.
const minShardSamples = 4096

// bodyPool recycles per-shard encode buffers across EncodeSharded calls.
// Bodies are append-only, so reuse only reslices to length zero — every
// byte the kernel emits overwrites the buffer, nothing to clear.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

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

	table := codeLengths(d)
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense)

	hdr := make([]byte, 0, 16+len(table)*3)
	hdr = appendTableHeader(hdr, len(q), table)

	out := make([]byte, 0, 4+len(hdr)+len(q)/2+8*shards)
	out = append(out, shardedMarker, shardedVersion)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	return appendShards(out, q, &cs, shards, workers)
}

// appendShards encodes syms as k contiguous shards under one code set, on
// up to workers goroutines, and appends the shard directory and bodies
// that close both sharded sub-formats:
//
//	uvarint(K)                shard count, K >= 1
//	K x { uvarint(nsamp_i), uvarint(bodyLen_i) }
//	K concatenated bodies     each an independently padded bit stream
//
// Shard i covers samples [i*n/K, (i+1)*n/K): the split depends only on
// (n, K), never on the worker count.
func appendShards(dst []byte, syms []int32, cs *codeSet, k, workers int) []byte {
	n := len(syms)
	bodies := make([]*[]byte, k)
	parallel.ForEach(k, workers, func(i int) {
		bp := bodyPool.Get().(*[]byte)
		*bp = encodeBody((*bp)[:0], syms[i*n/k:(i+1)*n/k], cs)
		bodies[i] = bp
	})
	dst = binary.AppendUvarint(dst, uint64(k))
	for i, bp := range bodies {
		dst = binary.AppendUvarint(dst, uint64((i+1)*n/k-i*n/k))
		dst = binary.AppendUvarint(dst, uint64(len(*bp)))
	}
	for _, bp := range bodies {
		dst = append(dst, *bp...)
		bodyPool.Put(bp)
	}
	return dst
}

// shard is one checked entry of a shard directory.
type shard struct {
	off, n           int // first sample and sample count
	bodyOff, bodyLen int // the shard's bit stream within the bodies
}

// parseShards parses the directory appendShards wrote, for a stream that
// declares total samples, and returns its entries and the concatenated
// bodies. Every claim is checked against the bytes present before
// anything proportional to it is allocated: the count is at least one
// and bounded by the stream (two bytes per entry) and by total (no shard
// is empty), the sample counts sum to total, and the bodies end exactly
// at the end of the stream.
func parseShards(data []byte, total int) ([]shard, []byte, error) {
	k, c := binary.Uvarint(data)
	if c <= 0 || k == 0 {
		return nil, nil, fmt.Errorf("%w: huffman: bad shard count", verdict.ErrCorrupt)
	}
	data = data[c:]
	if k > uint64(len(data))/2 || k > uint64(total) {
		return nil, nil, fmt.Errorf("%w: huffman: shard count %d exceeds stream", verdict.ErrCorrupt, k)
	}
	dir := make([]shard, k)
	off, pos := 0, 0
	for i := range dir {
		ns, c := binary.Uvarint(data[pos:])
		if c <= 0 {
			return nil, nil, fmt.Errorf("%w: huffman: bad shard sample count", verdict.ErrCorrupt)
		}
		pos += c
		bl, c := binary.Uvarint(data[pos:])
		if c <= 0 || bl > uint64(len(data)) {
			return nil, nil, fmt.Errorf("%w: huffman: bad shard body length", verdict.ErrCorrupt)
		}
		pos += c
		if ns == 0 || ns > uint64(total-off) {
			return nil, nil, fmt.Errorf("%w: huffman: shard of %d samples at %d of %d", verdict.ErrCorrupt, ns, off, total)
		}
		dir[i] = shard{off: off, n: int(ns), bodyLen: int(bl)}
		off += int(ns)
	}
	if off != total {
		return nil, nil, fmt.Errorf("%w: huffman: shard sample counts sum to %d, want %d", verdict.ErrCorrupt, off, total)
	}
	bodies := data[pos:]
	bodyOff := 0
	for i := range dir {
		if dir[i].bodyLen > len(bodies)-bodyOff {
			return nil, nil, fmt.Errorf("%w: huffman: shard bodies exceed stream", verdict.ErrCorrupt)
		}
		dir[i].bodyOff = bodyOff
		bodyOff += dir[i].bodyLen
	}
	if bodyOff != len(bodies) {
		return nil, nil, fmt.Errorf("%w: huffman: %d trailing body bytes", verdict.ErrCorrupt, len(bodies)-bodyOff)
	}
	return dir, bodies, nil
}

// decodeSharded decodes the sharded container, decoding shard bodies on up
// to workers goroutines.
func decodeSharded(data []byte, workers int) ([]int32, error) {
	if len(data) < 2 || data[0] != shardedMarker {
		return nil, fmt.Errorf("%w: huffman: bad sharded marker", verdict.ErrCorrupt)
	}
	if data[1] != shardedVersion {
		return nil, fmt.Errorf("%w: huffman: unsupported sharded version %d", verdict.ErrCorrupt, data[1])
	}
	data = data[2:]

	hdrLen, n := binary.Uvarint(data)
	if n <= 0 || hdrLen > uint64(len(data)-n) {
		return nil, fmt.Errorf("%w: huffman: bad header length", verdict.ErrCorrupt)
	}
	hdr := data[n : n+int(hdrLen)]
	data = data[n+int(hdrLen):]

	nsamp, k := binary.Uvarint(hdr)
	if k <= 0 {
		return nil, fmt.Errorf("%w: huffman: bad sample count", verdict.ErrCorrupt)
	}
	syms, lengths, err := parseTableHeader(hdr[k:])
	if err != nil {
		return nil, err
	}
	if nsamp > 0 && len(syms) == 0 {
		return nil, fmt.Errorf("%w: huffman: empty table with %d samples", verdict.ErrCorrupt, nsamp)
	}

	// Codes are >= 1 bit, so the bytes present bound the sample count
	// before the directory or the output is allocated.
	if nsamp > 8*uint64(len(data)) {
		return nil, fmt.Errorf("%w: huffman: %d samples for %d stream bytes", verdict.ErrCorrupt, nsamp, len(data))
	}
	dir, bodies, err := parseShards(data, int(nsamp))
	if err != nil {
		return nil, err
	}

	out := make([]int32, nsamp)
	d := newDecoder(syms, lengths)
	defer d.release()
	errs := make([]error, len(dir))
	parallel.ForEach(len(dir), workers, func(i int) {
		sh := dir[i]
		errs[i] = d.decodeBody(bodies[sh.bodyOff:sh.bodyOff+sh.bodyLen], out[sh.off:sh.off+sh.n])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}
