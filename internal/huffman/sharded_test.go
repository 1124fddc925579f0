package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

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
		dec, err := DecodeParallel(enc, w)
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
		if _, err := DecodeParallel(enc[:l], 2); err == nil && l < len(enc)-1 {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}
	// Single-byte mutations across the header region must error or decode
	// to something — never panic or hang.
	for i := 1; i < 64 && i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xA5
		_, _ = DecodeParallel(mut, 2)
	}
	// Bad version.
	bad := append([]byte(nil), enc...)
	bad[1] = 0x7F
	if _, err := DecodeParallel(bad, 2); err == nil {
		t.Error("unknown sharded version accepted")
	}
}

func TestShardedHostileDirectory(t *testing.T) {
	// Hand-built container with a shard directory whose sample counts
	// overflow the declared total.
	q := skewed(20_000, 8)
	enc := EncodeSharded(q, 2, 1)
	// Corrupt the shard count region: claim an enormous K.
	mut := append([]byte(nil), enc...)
	// Find a plausible offset: marker(1) version(1) uvarint hdrLen... too
	// format-dependent to patch precisely, so instead synthesize: a stream
	// claiming K = 2^40 shards must be rejected by the 2-bytes-per-entry
	// bound before any allocation.
	if _, err := DecodeParallel(mut[:12], 1); err == nil {
		t.Error("truncated directory accepted")
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
	dec, err := DecodeParallel(enc, 8)
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
// both reject the same lies — an empty shard, counts that do not sum to the
// total, bodies that stop short of or run past the stream end, a zero or
// absurd shard count — and both still read what the encoders write.
func TestShardDirectoryStrict(t *testing.T) {
	q := skewed(20_000, 11)
	raw := make([]byte, len(q))
	for i, v := range q {
		raw[i] = byte(v)
	}
	index := EncodeSharded(q, 3, 2)
	hdrLen, k := binary.Uvarint(index[2:])
	bytesEnc := EncodeBytesTo(nil, raw, 3, 2)
	_, kb := binary.Uvarint(bytesEnc[2:])

	for _, f := range []struct {
		name   string
		enc    []byte
		dirOff int
		decode func([]byte) error
	}{
		{"index", index, 2 + k + int(hdrLen), func(s []byte) error { _, err := DecodeParallel(s, 2); return err }},
		{"bytes", bytesEnc, 2 + kb + byteTablePacked, func(s []byte) error { return DecodeBytesInto(make([]byte, len(raw)), s, 2) }},
	} {
		// Take the directory apart.
		dir := f.enc[f.dirOff:]
		n, c := binary.Uvarint(dir)
		if n != 3 {
			t.Fatalf("%s: %d shards at offset %d, want 3", f.name, n, f.dirOff)
		}
		dir = dir[c:]
		entries := make([][2]uint64, n)
		for i := range entries {
			for j := range entries[i] {
				entries[i][j], c = binary.Uvarint(dir)
				dir = dir[c:]
			}
		}
		join := func(count uint64, entries [][2]uint64, bodies []byte) []byte {
			s := append([]byte(nil), f.enc[:f.dirOff]...)
			s = binary.AppendUvarint(s, count)
			for _, e := range entries {
				s = binary.AppendUvarint(binary.AppendUvarint(s, e[0]), e[1])
			}
			return append(s, bodies...)
		}
		short := append([][2]uint64(nil), entries...)
		short[0][0]--
		for name, c := range map[string]struct {
			stream []byte
			ok     bool
		}{
			"as written":     {join(3, entries, dir), true},
			"trailing byte":  {join(3, entries, append(append([]byte(nil), dir...), 0)), false},
			"body cut short": {join(3, entries, dir[:len(dir)-1]), false},
			"empty shard":    {join(4, append([][2]uint64{{0, 0}}, entries...), dir), false},
			"sum short":      {join(3, short, dir), false},
			"zero shards":    {join(0, nil, dir), false},
			"absurd count":   {join(1<<40, entries, dir), false},
		} {
			if err := f.decode(c.stream); (err == nil) != c.ok {
				t.Errorf("%s, %s: err = %v, want ok = %v", f.name, name, err, c.ok)
			} else if err != nil && !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: untyped error %v", f.name, name, err)
			}
		}
	}
}
