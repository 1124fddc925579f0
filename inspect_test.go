package scdc

import (
	"errors"
	"testing"

	"scdc/datasets"
)

func TestInspectPlain(t *testing.T) {
	data, dims, err := datasets.Generate("Miranda", 0, []int{16, 20, 24}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Compress(data, dims, Options{Algorithm: QoZ, RelativeBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunked || info.Algorithm != QoZ || info.Points != 16*20*24 || info.Chunks != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Dims[0] != 16 || info.Dims[1] != 20 || info.Dims[2] != 24 {
		t.Fatalf("dims = %v", info.Dims)
	}
	if info.PayloadBytes <= 0 || info.PayloadBytes >= len(stream) {
		t.Fatalf("payload = %d of %d", info.PayloadBytes, len(stream))
	}
}

func TestInspectChunked(t *testing.T) {
	data, dims, err := datasets.Generate("Miranda", 0, []int{16, 20, 24}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-3, Workers: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Chunked || info.Chunks != 4 || info.ChunkExtent != 4 {
		t.Fatalf("info = %+v", info)
	}
	if info.Algorithm != SZ3 {
		t.Fatalf("algorithm = %v", info.Algorithm)
	}
	if len(info.ChunkBytes) != 4 {
		t.Fatalf("chunk bytes = %v", info.ChunkBytes)
	}
}

func TestInspectErrors(t *testing.T) {
	if _, err := Inspect(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Inspect([]byte("NOTASTREAMATALL")); err == nil {
		t.Error("garbage accepted")
	}
	// Inspect rejects every prologue Decompress rejects, plain and chunked:
	// a dims product that overflows int (it used to come back as Points 0),
	// points implausible for the payload, nd outside 1..grid.MaxDims.
	const big = 1 << 40
	for name, p := range map[string]hostile{
		"overflow":         {formatV1, byte(SZ3), []uint64{big, big, big, big}},
		"overflow-chunked": {formatV1, kindChunked, []uint64{big, big, big, big}},
		"huge-vs-payload":  {formatVersion, byte(SZ3), []uint64{1 << 20, 1 << 20, 1 << 5}},
		"huge-chunked":     {formatV1, kindChunked, []uint64{1 << 20, 1 << 20, 1 << 5}},
		"nd-5":             {formatVersion, byte(SZ3), []uint64{2, 2, 2, 2, 2}},
		"nd-0":             {formatV1, byte(SZ3), nil},
	} {
		if info, err := Inspect(p.build([]byte("tiny"))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %+v, %v; want ErrCorrupt", name, info, err)
		}
	}
}

// TestChunkAlgorithm: the chunk-0 peek Inspect makes is the header reader
// on its footer-skipping path — it reads the algorithm of a chunk whose own
// CRC32C the container's footer already covered, and still rejects every
// malformed prologue and a chunk that is itself a container.
func TestChunkAlgorithm(t *testing.T) {
	data, dims, err := datasets.Generate("Miranda", 0, []int{8, 10, 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk is the one chunk of a container of its own dims.
	parseChunk := func(c []byte, verify bool) (header, error) {
		return parseChunk(header{dims: dims}, dims[0], [][]byte{c}, 0, verify)
	}
	stream, err := Compress(data, dims, Options{Algorithm: MGARD, RelativeBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	stream[len(stream)-1] ^= 0xFF // the peek must not look at the chunk's footer
	h, err := parseChunk(stream, false)
	if err != nil || Algorithm(h.kind) != MGARD {
		t.Fatalf("parseChunk = %v, %v", Algorithm(h.kind), err)
	}
	if _, err := parseChunk(stream, true); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("verifying read of a damaged footer: got %v, want ErrIntegrity", err)
	}
	nested, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX\x02\x00\x03full-length-but-bad-magic"),
		{'S', 'C', 'D', 'C', 0x07, 0x00, 0x03}, // unsupported version
		{'S', 'C', 'D', 'C', 0x02, 0xFF, 0x03}, // nested chunked marker
		{'S', 'C', 'D', 'C', 0x02, 0x63, 0x03}, // unknown algorithm
		nested,
		hostile{formatV1, 0x63, []uint64{4, 4}}.build([]byte("tiny")),
	} {
		if _, err := parseChunk(bad, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("parseChunk(%q): got %v, want ErrCorrupt", bad, err)
		}
	}
}

// BenchmarkInspectChunked pins the cost of inspecting a many-chunk
// container: one CRC pass over the container, no recursive per-chunk
// verification. Before the footer-skipping chunk-0 peek this re-verified
// chunk 0's own footer and built a throwaway StreamInfo.
func BenchmarkInspectChunked(b *testing.B) {
	// 1000 chunks of 2x6x6 points along dims[0].
	data, dims, err := datasets.Generate("Miranda", 0, []int{2000, 6, 6}, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-3, Workers: 8}, 2)
	if err != nil {
		b.Fatal(err)
	}
	info, err := Inspect(stream)
	if err != nil || info.Chunks != 1000 {
		b.Fatalf("setup: chunks=%d err=%v", info.Chunks, err)
	}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Inspect(stream); err != nil {
			b.Fatal(err)
		}
	}
}
