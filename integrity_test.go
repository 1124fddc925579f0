package scdc

import (
	"bytes"
	"errors"
	"testing"

	"scdc/internal/datagen"
)

// toV1 converts a plain v2 stream to the legacy footer-less v1 layout, as
// an old writer would have produced it: same bytes, version byte 1, no
// CRC32C trailer.
func toV1(t *testing.T, stream []byte) []byte {
	t.Helper()
	if len(stream) < 5+footerSize || stream[4] != formatVersion {
		t.Fatalf("not a plain v2 stream (%d bytes)", len(stream))
	}
	v1 := append([]byte(nil), stream[:len(stream)-footerSize]...)
	v1[4] = formatV1
	return v1
}

func integrityField(t *testing.T) ([]float64, []int) {
	t.Helper()
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{16, 18, 20}, 5)
	return f.Data, f.Dims()
}

// TestIntegrityFooterDetectsFlips: any single flipped payload byte of a v2
// stream must fail with ErrIntegrity before any decoding runs.
func TestIntegrityFooterDetectsFlips(t *testing.T) {
	data, dims := integrityField(t)
	stream, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-4, QP: DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes across the whole stream: header, payload, and footer.
	// Positions 0-3 damage the magic (ErrCorrupt); everything after must be
	// caught by the checksum.
	for pos := 4; pos < len(stream); pos += 7 {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 0x40
		_, err := Decompress(mut)
		if pos == 4 {
			// The version byte itself may mutate into "unsupported version"
			// (ErrCorrupt) rather than a checksum failure.
			if err == nil {
				t.Fatalf("flipped version byte accepted")
			}
			continue
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flip at %d: got %v, want ErrIntegrity", pos, err)
		}
	}
}

// TestIntegrityV1BackCompat: legacy footer-less v1 streams must still
// decompress to the same field as their v2 counterparts.
func TestIntegrityV1BackCompat(t *testing.T) {
	data, dims := integrityField(t)
	stream, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	v1 := toV1(t, stream)
	want, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(v1)
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("v1 and v2 decode differ at %d", i)
		}
	}
	info, err := Inspect(v1)
	if err != nil {
		t.Fatalf("Inspect(v1): %v", err)
	}
	if info.Version != 1 || info.Integrity {
		t.Fatalf("Inspect(v1) = version %d integrity %v", info.Version, info.Integrity)
	}
	info, err = Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != formatVersion || !info.Integrity {
		t.Fatalf("Inspect(v2) = version %d integrity %v", info.Version, info.Integrity)
	}
}

// TestIntegrityChunked: the chunked container is covered by its own
// footer, and a fully legacy (v1 outer + v1 chunks) container still reads.
func TestIntegrityChunked(t *testing.T) {
	data, dims := integrityField(t)
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-4, Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 8; pos < len(stream); pos += 13 {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 0x08
		if _, err := DecompressParallel(mut, 2); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("chunked flip at %d: got %v, want ErrIntegrity", pos, err)
		}
	}

	// Rebuild the container exactly as the v1 writer laid it out.
	v1 := buildV1Chunked(t, stream, func(c []byte) []byte { return toV1(t, c) })
	want, err := DecompressParallel(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressParallel(v1, 2)
	if err != nil {
		t.Fatalf("v1 chunked container rejected: %v", err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("v1 chunked decode differs at %d", i)
		}
	}
}

// TestGiantDimsHeaderRejected: a header whose declared dims product
// overflows int, or is absurd relative to the payload, must fail fast with
// ErrCorrupt — no allocation proportional to the claim — from every reader.
func TestGiantDimsHeaderRejected(t *testing.T) {
	const big = 1 << 40
	for name, c := range map[string]struct {
		hdr     hostile
		payload string
	}{
		"overflow":        {hostile{formatVersion, byte(SZ3), []uint64{big, big, big}}, "tiny"},
		"overflow-v1-4d":  {hostile{formatV1, byte(SZ3), []uint64{big, big, big, big}}, "tiny"},
		"overflow-chunks": {hostile{formatV1, kindChunked, []uint64{big, big, big, big}}, "tiny"},
		"huge-vs-payload": {hostile{formatVersion, byte(SZ3), []uint64{1 << 20, 1 << 20, 1 << 5}}, "tiny"},
		"zero-payload":    {hostile{formatVersion, byte(SZ3), []uint64{4, 4}}, ""},
	} {
		stream := c.hdr.build([]byte(c.payload))
		if _, err := Decompress(stream); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress: got %v, want ErrCorrupt", name, err)
		}
		if info, err := Inspect(stream); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Inspect: got %+v, %v; want ErrCorrupt", name, info, err)
		}
		if _, err := DecompressChunk(stream, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecompressChunk: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestErrIntegrityDistinct: the two error classes are distinct values, so
// errors.Is can separate transport damage from structural garbage.
func TestErrIntegrityDistinct(t *testing.T) {
	if errors.Is(ErrIntegrity, ErrCorrupt) || errors.Is(ErrCorrupt, ErrIntegrity) {
		t.Fatal("ErrIntegrity and ErrCorrupt must be unrelated")
	}
	// Truncating the footer itself reports ErrIntegrity (damaged trailer),
	// truncating into the header reports ErrCorrupt.
	data, dims := integrityField(t)
	stream, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(stream[:len(stream)-2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := Decompress(stream[:6]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header truncation: got %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(stream[:4], magic[:]) {
		t.Fatal("stream does not start with magic")
	}
}
