package huffman

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

func skewed(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]int32, n)
	for i := range q {
		q[i] = 32768 + int32(rng.NormFloat64()*3)
	}
	return q
}

func shardedRoundTrip(t *testing.T, q []int32, shards, workers int) []byte {
	t.Helper()
	enc := EncodeSharded(q, shards, workers)
	for _, w := range []int{1, 4} {
		dec, err := DecodeParallel(enc, len(q), w)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, w, err)
		}
		if len(dec) != len(q) {
			t.Fatalf("shards=%d: %d symbols, want %d", shards, len(dec), len(q))
		}
		for i := range q {
			if dec[i] != q[i] {
				t.Fatalf("shards=%d: symbol %d differs", shards, i)
			}
		}
	}
	return enc
}

func TestShardedRoundTrip(t *testing.T) {
	q := skewed(100_000, 1)
	for _, shards := range []int{2, 4, 7, 16} {
		shardedRoundTrip(t, q, shards, 4)
	}
}

func TestShardedFallsBackToLegacy(t *testing.T) {
	// Streams too small to split, and shards <= 1, must produce the legacy
	// format byte for byte.
	small := skewed(100, 2)
	legacy := Encode(small)
	for _, shards := range []int{0, 1, 8} {
		if got := EncodeSharded(small, shards, 4); !bytes.Equal(got, legacy) {
			t.Fatalf("shards=%d on small input: not legacy format", shards)
		}
	}
	big := skewed(50_000, 3)
	if got := EncodeSharded(big, 1, 4); !bytes.Equal(got, Encode(big)) {
		t.Fatal("shards=1: not legacy format")
	}
}

func TestShardedMarkerUnambiguous(t *testing.T) {
	// Legacy streams start with uvarint(hdrLen) where hdrLen >= 2, so the
	// first byte is never 0x00; sharded streams always start with 0x00.
	for _, q := range [][]int32{{}, {5}, {1, 2, 3}, skewed(1000, 4)} {
		if enc := Encode(q); len(enc) > 0 && enc[0] == shardedMarker {
			t.Fatal("legacy stream starts with sharded marker")
		}
	}
	enc := EncodeSharded(skewed(50_000, 5), 4, 2)
	if enc[0] != shardedMarker || enc[1] != shardedVersion {
		t.Fatal("sharded stream missing marker/version")
	}
}

func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	q := skewed(80_000, 6)
	want := EncodeSharded(q, 5, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := EncodeSharded(q, 5, workers); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d changed the sharded stream", workers)
		}
	}
}

// TestShardedBufferReuse drives back-to-back sharded encodes of different
// arrays: pooled shard buffers must never leak one call's bytes into the
// next (they are resliced to zero length and fully rewritten).
func TestShardedBufferReuse(t *testing.T) {
	big := skewed(60_000, 3)
	small := skewed(20_000, 9)
	wantBig := append([]byte(nil), EncodeSharded(big, 4, 2)...)
	wantSmall := append([]byte(nil), EncodeSharded(small, 4, 2)...)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(EncodeSharded(big, 4, 2), wantBig) {
			t.Fatalf("iteration %d: big stream drifted under buffer reuse", i)
		}
		if !bytes.Equal(EncodeSharded(small, 4, 2), wantSmall) {
			t.Fatalf("iteration %d: small stream drifted under buffer reuse", i)
		}
	}
}

func TestShardedCorrupt(t *testing.T) {
	q := skewed(60_000, 7)
	enc := EncodeSharded(q, 4, 2)

	// Truncations at every prefix length must error, never panic.
	for l := 0; l < len(enc); l += 97 {
		if _, err := DecodeParallel(enc[:l], -1, 2); err == nil && l < len(enc)-1 {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}
	// Single-byte mutations across the header region must error or decode
	// to something — never panic or hang.
	for i := 1; i < 64 && i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xA5
		_, _ = DecodeParallel(mut, -1, 2)
	}
	// Bad version.
	bad := append([]byte(nil), enc...)
	bad[1] = 0x7F
	if _, err := DecodeParallel(bad, -1, 2); err == nil {
		t.Error("unknown sharded version accepted")
	}
}

// dirReader is one of this package's two readers of a shard directory:
// the index sub-format (0x00 0x01) and the byte sub-format (0xB7), which
// end in the same directory (internal/shard).
type dirReader struct {
	name   string
	enc    []byte // a stream of three shards, as the encoder wrote it
	dirOff int    // where its directory starts
	total  int    // samples it declares
	decode func([]byte) error
}

func dirReaders(n int) []dirReader {
	q := skewed(n, 11)
	raw := make([]byte, len(q))
	for i, v := range q {
		raw[i] = byte(v)
	}
	index := EncodeSharded(q, 3, 2)
	hdrLen, k := binary.Uvarint(index[2:])
	bytesEnc := EncodeBytesTo(nil, raw, 3, 2)
	_, kb := binary.Uvarint(bytesEnc[2:])
	dst := make([]byte, n)
	return []dirReader{
		{"index", index, 2 + k + int(hdrLen), n, func(s []byte) error { _, err := DecodeParallel(s, n, 2); return err }},
		{"bytes", bytesEnc, 2 + kb + byteTablePacked, n, func(s []byte) error { return DecodeBytesInto(dst, s, 2) }},
	}
}

// TestShardedHostileDirectory: both readers turn every lie of the shared
// table away before anything the size of the output is allocated.
func TestShardedHostileDirectory(t *testing.T) {
	const n = 1 << 20 // 4 MB of decoded symbols
	for _, r := range dirReaders(n) {
		for name, lie := range shardtest.Lies(r.enc[r.dirOff:], r.total, false) {
			stream := append(r.enc[:r.dirOff:r.dirOff], lie...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := r.decode(stream)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", r.name, name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > n {
				t.Errorf("%s, %s: %d bytes allocated before the rejection", r.name, name, grew)
			}
		}
	}
}

func TestTableCapTightened(t *testing.T) {
	// A header claiming more table entries than its bytes can possibly
	// hold (2 bytes per entry) must be rejected. ntab = len(hdr) used to
	// squeak past the old cap (ntab > len(hdr)).
	hdr := []byte{
		10,   // nsamp = 10
		8,    // ntab = 8, but only 6 bytes of pairs follow
		2, 1, // one (delta, len) pair
		2, 1,
		2, 1,
	}
	stream := append([]byte{byte(len(hdr))}, hdr...)
	if _, err := Decode(stream); err == nil {
		t.Error("oversized table accepted")
	}
}

func TestDecodeParallelLegacy(t *testing.T) {
	q := skewed(10_000, 9)
	enc := Encode(q)
	dec, err := DecodeParallel(enc, len(q), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if dec[i] != q[i] {
			t.Fatalf("symbol %d differs", i)
		}
	}
}

// TestShardDirectoryStrict: the index sub-format (0x00 0x01) and the byte
// sub-format (0xB7) end in one shard directory with one checked reader, so
// both reject the same lies — the shared table of internal/shardtest — and
// both still read what the encoders write.
func TestShardDirectoryStrict(t *testing.T) {
	for _, r := range dirReaders(20_000) {
		if err := r.decode(r.enc); err != nil {
			t.Errorf("%s: stream as written: %v", r.name, err)
		}
		lies := shardtest.Lies(r.enc[r.dirOff:], r.total, false)
		if len(lies) < 9 {
			t.Fatalf("%s: table has %d lies", r.name, len(lies))
		}
		for name, lie := range lies {
			if err := r.decode(append(r.enc[:r.dirOff:r.dirOff], lie...)); !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", r.name, name, err)
			}
		}
	}
}
