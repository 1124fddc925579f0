// Package shard is the one writer and the one reader of the shard
// directory that closes every sharded format of this repository: the
// sharded Huffman index sub-format (0x00 0x01), the Huffman byte
// sub-format (lossless tag 7) and the sharded lossless container (tag 4).
//
//	uvarint(K)                shard count, K >= 1
//	K x { [byte tag,]         per-shard codec, tagged directories only
//	      uvarint(n_i),       decoded units of shard i (samples, bytes)
//	      uvarint(bodyLen_i) }
//	K concatenated bodies
//
// The decoded units of the shards tile [0, total) in order. What a body
// holds is the caller's business.
package shard

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scdc/internal/verdict"
)

// Shard is one directory entry and its body.
type Shard struct {
	Tag    byte // tagged directories only
	Off, N int  // first decoded unit (set by ParseDir) and unit count
	Body   []byte
	// Buf is the pooled buffer Body was encoded into, if any; Release
	// returns it.
	Buf *Buf
}

// Buf is a pooled shard body under construction. It is an io.Writer so
// that stream compressors can write into it.
type Buf struct{ B []byte }

func (b *Buf) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

var bufPool = sync.Pool{New: func() any { return new(Buf) }}

// GetBuf returns an empty pooled buffer. Bodies are append-only, so reuse
// only reslices to length zero: nothing to clear.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Release returns the pooled buffers of dir; the bodies they back must
// not be used afterwards.
func Release(dir []Shard) {
	for _, s := range dir {
		if s.Buf != nil {
			bufPool.Put(s.Buf)
		}
	}
}

// AppendDir appends the directory of dir and then its bodies to dst.
func AppendDir(dst []byte, dir []Shard, tagged bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(dir)))
	for _, s := range dir {
		if tagged {
			dst = append(dst, s.Tag)
		}
		dst = binary.AppendUvarint(dst, uint64(s.N))
		dst = binary.AppendUvarint(dst, uint64(len(s.Body)))
	}
	for _, s := range dir {
		dst = append(dst, s.Body...)
	}
	return dst
}

// ParseDir reads the directory AppendDir wrote from data, which must end
// where the last body ends, for a stream that declares total decoded
// units. Bodies alias data. Every claim is checked against the bytes
// present before anything proportional to it is allocated: the count is
// at least one and bounded by maxShards, by the stream (two or three
// bytes per entry) and by total (no shard is empty); the unit counts sum
// to total; every body lies inside the stream and the last one ends it.
func ParseDir(data []byte, total int, tagged bool, maxShards int) ([]Shard, error) {
	k, c := binary.Uvarint(data)
	if c <= 0 || k == 0 {
		return nil, fmt.Errorf("%w: shard: bad shard count", verdict.ErrCorrupt)
	}
	data = data[c:]
	entry := 2
	if tagged {
		entry = 3
	}
	if k > uint64(len(data)/entry) || k > uint64(min(total, maxShards)) {
		return nil, fmt.Errorf("%w: shard: %d shards for %d units in %d bytes", verdict.ErrCorrupt, k, total, len(data))
	}
	dir := make([]Shard, k)
	off, pos := 0, 0
	var bodyBytes uint64 // never more than len(data)
	for i := range dir {
		if tagged {
			if pos >= len(data) {
				return nil, fmt.Errorf("%w: shard: truncated directory", verdict.ErrCorrupt)
			}
			dir[i].Tag = data[pos]
			pos++
		}
		n, c := binary.Uvarint(data[pos:])
		if c <= 0 || n == 0 || n > uint64(total-off) {
			return nil, fmt.Errorf("%w: shard: bad unit count of shard %d at %d of %d", verdict.ErrCorrupt, i, off, total)
		}
		pos += c
		bl, c := binary.Uvarint(data[pos:])
		if c <= 0 || bl > uint64(len(data))-bodyBytes {
			return nil, fmt.Errorf("%w: shard: bad body length of shard %d", verdict.ErrCorrupt, i)
		}
		pos += c
		// Body holds the length until the directory's end is known.
		dir[i].Off, dir[i].N, dir[i].Body = off, int(n), data[:bl]
		off += int(n)
		bodyBytes += bl
	}
	if off != total {
		return nil, fmt.Errorf("%w: shard: unit counts sum to %d, want %d", verdict.ErrCorrupt, off, total)
	}
	bodies := data[pos:]
	if bodyBytes != uint64(len(bodies)) {
		return nil, fmt.Errorf("%w: shard: %d body bytes declared, %d present", verdict.ErrCorrupt, bodyBytes, len(bodies))
	}
	for i := range dir {
		bl := len(dir[i].Body)
		dir[i].Body, bodies = bodies[:bl], bodies[bl:]
	}
	return dir, nil
}
