package lossless

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"scdc/internal/shardtest"
	"scdc/internal/verdict"
)

// shardedPayload is big enough to split (several shards) and mixes the
// compressible/noisy structure of real entropy-stage output.
func shardedPayload(seed int64, n int) []byte {
	return randomPayload(rand.New(rand.NewSource(seed)), n)
}

// TestShardCount pins the deterministic split policy the container's
// worker-independence rests on.
func TestShardCount(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 1},
		{shardMinBytes, 1},
		{2*shardMinBytes - 1, 1},
		{2 * shardMinBytes, 2},
		{shardTargetBytes, 2},
		{10 * shardTargetBytes, 10},
		{2 * maxShardCount * shardTargetBytes, maxShardCount},
	}
	for _, c := range cases {
		if got := ShardCount(c.n); got != c.k {
			t.Errorf("ShardCount(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

// TestShardedWorkerIdentity: the stream must be byte-identical for every
// worker count, per codec — the shard split and every per-shard codec
// decision depend only on the bytes.
func TestShardedWorkerIdentity(t *testing.T) {
	src := shardedPayload(21, 5*shardTargetBytes+123)
	for _, c := range []Codec{Flate, Huffman, Auto} {
		ref, err := CompressSharded(c, src, 1)
		if err != nil {
			t.Fatalf("%v workers=1: %v", c, err)
		}
		for _, w := range []int{2, 4, 8} {
			enc, err := CompressSharded(c, src, w)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", c, w, err)
			}
			if !bytes.Equal(enc, ref) {
				t.Fatalf("%v: stream differs between workers=1 and workers=%d", c, w)
			}
		}
		for _, w := range []int{1, 2, 4, 8} {
			dec, err := DecompressLimit(ref, len(src), w)
			if err != nil {
				t.Fatalf("%v decompress workers=%d: %v", c, w, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%v: round trip mismatch at workers=%d", c, w)
			}
		}
	}
}

// TestShardedRoundTrip sweeps sizes across the fallback boundary and odd
// tails for every inner codec.
func TestShardedRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 1000, 2*shardMinBytes - 1, 2 * shardMinBytes,
		2*shardMinBytes + 7, shardTargetBytes + 1, 3*shardTargetBytes + 13}
	for _, c := range []Codec{None, Flate, Huffman, Auto, Store} {
		for _, n := range sizes {
			src := shardedPayload(int64(n)+7, n)
			enc, err := CompressSharded(c, src, 3)
			if err != nil {
				t.Fatalf("%v n=%d: %v", c, n, err)
			}
			dec, err := DecompressLimit(enc, n, 3)
			if err != nil {
				t.Fatalf("%v n=%d: %v", c, n, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%v n=%d: round trip mismatch", c, n)
			}
		}
	}
	if _, err := CompressSharded(Sharded, []byte("x"), 1); err == nil {
		t.Error("Sharded as inner codec accepted")
	}
}

// shardedStream builds a hand-rolled tag-4 stream from directory triples
// and body bytes, for hostile-header tests.
func shardedStream(n int, dir [][3]uint64, bodies []byte) []byte {
	out := []byte{byte(Sharded)}
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(len(dir)))
	for _, d := range dir {
		out = append(out, byte(d[0]))
		out = binary.AppendUvarint(out, d[1])
		out = binary.AppendUvarint(out, d[2])
	}
	return append(out, bodies...)
}

// TestShardedHostileHeaders: every lying directory claim must fail with
// ErrCorrupt during validation — before the container allocates the
// declared output or hands a shard to an inner codec.
func TestShardedHostileHeaders(t *testing.T) {
	stored := func(n int) [3]uint64 { return [3]uint64{uint64(None), uint64(n), uint64(n)} }
	cases := map[string][]byte{
		"zero shards":        shardedStream(4, nil, []byte{1, 2, 3, 4}),
		"empty shard":        shardedStream(4, [][3]uint64{stored(4), {uint64(None), 0, 0}}, []byte{1, 2, 3, 4}),
		"count beyond body":  shardedStream(8, [][3]uint64{stored(4), stored(4), stored(4)}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"sum under declared": shardedStream(9, [][3]uint64{stored(4), stored(4)}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"sum over declared":  shardedStream(7, [][3]uint64{stored(4), stored(4)}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"body overrun":       shardedStream(8, [][3]uint64{stored(4), {uint64(None), 4, 400}}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"trailing body":      shardedStream(4, [][3]uint64{stored(4)}, []byte{1, 2, 3, 4, 5}),
		"bad inner codec":    shardedStream(4, [][3]uint64{{3, 4, 4}}, []byte{1, 2, 3, 4}),
		"nested container":   shardedStream(4, [][3]uint64{{uint64(Sharded), 4, 4}}, []byte{1, 2, 3, 4}),
		"stored length lie":  shardedStream(8, [][3]uint64{{uint64(None), 8, 4}}, []byte{1, 2, 3, 4}),
		"truncated dir":      shardedStream(8, [][3]uint64{stored(4)}, nil)[:5],
		// A shard count in the millions against a tiny stream must be
		// rejected by the 3-bytes-per-entry bound before the directory
		// slice is allocated.
		"huge shard count": append(binary.AppendUvarint(binary.AppendUvarint([]byte{byte(Sharded)}, 16), 1<<40), 0, 1, 2),
	}
	for name, stream := range cases {
		if _, err := DecompressLimit(stream, 1<<20, 2); !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// Sanity: a well-formed hand-rolled stream decodes.
	good := shardedStream(8, [][3]uint64{stored(4), stored(4)}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	dec, err := DecompressLimit(good, 1<<20, 2)
	if err != nil || !bytes.Equal(dec, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("well-formed stream rejected: %v", err)
	}

	// The table of directory lies the Huffman shard readers are held to
	// (internal/shardtest), told about a container the encoder wrote:
	// each is turned away before the plaintext is allocated.
	src := shardedPayload(3, 8*shardTargetBytes)
	enc, err := CompressSharded(Flate, src, 2)
	if err != nil || Codec(enc[0]) != Sharded {
		t.Fatalf("tag %d, %v", enc[0], err)
	}
	_, c := binary.Uvarint(enc[1:])
	for name, lie := range shardtest.Lies(enc[1+c:], len(src), true) {
		stream := append(enc[:1+c:1+c], lie...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecompressLimit(stream, len(src), 2)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(src)/2) {
			t.Errorf("%s: %d bytes allocated before the rejection", name, grew)
		}
	}
}

// TestHuffmanHostileHeaders drives the byte sub-format's validation: a
// stream whose code table over-subscribes the canonical space, or whose
// shard directory lies about counts or body extents, must fail with
// ErrCorrupt rather than panic or mis-decode.
func TestHuffmanHostileHeaders(t *testing.T) {
	src := shardedPayload(5, 4096)
	enc, err := Compress(Huffman, src)
	if err != nil {
		t.Fatal(err)
	}
	body := enc[3:] // strip codec tag + 2-byte uvarint(4096)

	mutate := func(mut func(b []byte) []byte) []byte {
		b := mut(append([]byte(nil), body...))
		out := []byte{byte(Huffman)}
		out = binary.AppendUvarint(out, 4096)
		return append(out, b...)
	}
	cases := map[string][]byte{
		"bad marker":  mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"bad version": mutate(func(b []byte) []byte { b[1] = 0x7f; return b }),
		// All-ones packed table: 256 codes of length 63 over-subscribe
		// the canonical space ~2^55-fold.
		"oversubscribed table": mutate(func(b []byte) []byte {
			for i := 0; i < 192; i++ {
				b[4+i] = 0xff
			}
			return b
		}),
		"empty table": mutate(func(b []byte) []byte {
			for i := 0; i < 192; i++ {
				b[4+i] = 0
			}
			return b
		}),
		"truncated table": mutate(func(b []byte) []byte { return b[:50] }),
		"truncated body":  mutate(func(b []byte) []byte { return b[:len(b)-5] }),
		"trailing bytes":  mutate(func(b []byte) []byte { return append(b, 0xaa) }),
		"count mismatch": mutate(func(b []byte) []byte {
			b[2], b[3] = 0x81, 0x01 // uvarint 129 instead of 4096
			return b
		}),
	}
	for name, stream := range cases {
		if _, err := Decompress(stream); !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// A lying sample count far past the 8-symbols-per-byte bound must be
	// rejected before the output allocation.
	huge := []byte{byte(Huffman)}
	huge = binary.AppendUvarint(huge, 1<<50)
	huge = append(huge, body...)
	if _, err := Decompress(huge); !errors.Is(err, verdict.ErrCorrupt) {
		t.Errorf("huge count: got %v, want ErrCorrupt", err)
	}
}

// TestFlateDecompressAllocs pins the direct-read decompress path: the
// output buffer is allocated once from the bound-checked declared length
// and inflated into in place, with reader state pooled — so the whole
// call stays within a handful of allocations.
func TestFlateDecompressAllocs(t *testing.T) {
	src := shardedPayload(9, 64<<10)
	enc, err := Compress(Flate, src)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools.
	if _, err := DecompressLimit(enc, len(src), 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecompressLimit(enc, len(src), 1); err != nil {
			t.Fatal(err)
		}
	})
	// What remains is one output buffer plus stdlib flate's per-block
	// huffman link tables (~14 for this payload). The former copy through
	// bytes.Buffer added a ~12-allocation growth chain on top, so the pin
	// sits between the two.
	if allocs > 20 {
		t.Errorf("flate decompress: %.1f allocs/op, want <= 20", allocs)
	}
}

// FuzzLosslessSharded: arbitrary bytes against the sharded container and
// Huffman byte-stream decoders — must decode within the limit or fail
// with verdict.ErrCorrupt, never panic; valid decodes must re-encode and round-trip.
func FuzzLosslessSharded(f *testing.F) {
	small := shardedPayload(3, 1000)
	big := shardedPayload(4, 2*shardMinBytes+17)
	for _, c := range []Codec{Flate, Huffman, Auto} {
		enc, err := CompressSharded(c, big, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	if enc, err := Compress(Huffman, small); err == nil {
		f.Add(enc)
	}
	f.Add(shardedStream(8, [][3]uint64{{uint64(None), 4, 4}, {uint64(LZ), 4, 4}}, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	// The decode-only LZ codec's hand-built sequences, each as a shard
	// behind a stored one, and the tag-2 golden payload.
	for _, v := range lzVectors() {
		if len(v.want) > 0 {
			n := 4 + len(v.want)
			f.Add(shardedStream(n, [][3]uint64{{uint64(None), 4, 4}, {uint64(LZ), uint64(len(v.want)), uint64(len(v.body))}}, append([]byte{1, 2, 3, 4}, v.body...)))
		}
	}
	f.Add(goldenPayload(f, "sz3_3d_qpon_lossless_lz.scdc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressLimit(data, 1<<22, 3)
		if err != nil {
			if !errors.Is(err, verdict.ErrCorrupt) {
				t.Fatalf("decode error %v is not verdict.ErrCorrupt", err)
			}
			return
		}
		if len(out) > 1<<22 {
			t.Fatalf("limit breached: %d bytes", len(out))
		}
		re, err := CompressSharded(Auto, out, 2)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecompressLimit(re, len(out), 2)
		if err != nil || !bytes.Equal(dec, out) {
			t.Fatalf("re-encode round trip broke: %v", err)
		}
	})
}
