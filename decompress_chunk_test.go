package scdc

import (
	"errors"
	"math"
	"testing"
)

// parseChunked reads a chunked container's dims, extent and chunk streams
// through the package's header and chunk-table readers.
func parseChunked(stream []byte) (dims []int, extent int, chunks [][]byte, err error) {
	h, err := parseHeader(stream, true)
	if err != nil {
		return nil, 0, nil, err
	}
	extent, chunks, err = parseChunkTable(h)
	return h.dims, extent, chunks, err
}

func chunkTestStream(t *testing.T) ([]float64, []int, []byte) {
	t.Helper()
	data, dims := integrityField(t)
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-4, QP: DefaultQP(), Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return data, dims, stream
}

// TestDecompressChunkOutOfRange: chunk indexes outside [0, nChunks) are an
// options error, not corruption.
func TestDecompressChunkOutOfRange(t *testing.T) {
	_, _, stream := chunkTestStream(t)
	_, _, chunks, err := parseChunked(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, len(chunks), len(chunks) + 7} {
		if _, err := DecompressChunk(stream, idx); !errors.Is(err, ErrBadOptions) {
			t.Errorf("chunk %d: got %v, want ErrBadOptions", idx, err)
		}
	}
	// In-range indexes still decode.
	if _, err := DecompressChunk(stream, len(chunks)-1); err != nil {
		t.Errorf("last chunk: %v", err)
	}
}

// TestDecompressChunkCorruptBody: damage confined to one chunk's body must
// surface as that chunk's ErrIntegrity. The outer CRC is recomputed after
// the flip so the container itself parses — isolating the inner check.
func TestDecompressChunkCorruptBody(t *testing.T) {
	_, _, stream := chunkTestStream(t)
	_, _, chunks, err := parseChunked(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Locate chunk 1 inside the container and flip a byte in the middle of
	// its body (past its header, before its footer).
	body := stream[:len(stream)-footerSize]
	target := chunks[1]
	off := -1
	for i := 0; i+len(target) <= len(body); i++ {
		if &body[i] == &target[0] {
			off = i
			break
		}
	}
	if off < 0 {
		t.Fatal("chunk 1 not located in container")
	}
	mut := append([]byte(nil), body...)
	mut[off+len(target)/2] ^= 0x20
	mut = appendFooter(mut)

	if _, err := DecompressChunk(mut, 1); !errors.Is(err, ErrIntegrity) {
		t.Errorf("corrupt chunk 1: got %v, want ErrIntegrity", err)
	}
	// Undamaged siblings still decode.
	if _, err := DecompressChunk(mut, 0); err != nil {
		t.Errorf("chunk 0 of mutated container: %v", err)
	}
	// The whole-field path reports the same damage.
	if _, err := DecompressParallel(mut, 2); !errors.Is(err, ErrIntegrity) {
		t.Errorf("DecompressParallel: got %v, want ErrIntegrity", err)
	}
}

// buildV1Chunked rebuilds a chunked container as the legacy v1 writer laid
// it out: v1 outer header, no outer footer, chunks converted with conv.
func buildV1Chunked(t *testing.T, stream []byte, conv func([]byte) []byte) []byte {
	t.Helper()
	cdims, extent, chunks, err := parseChunked(stream)
	if err != nil {
		t.Fatal(err)
	}
	udims := make([]uint64, len(cdims))
	for i, d := range cdims {
		udims[i] = uint64(d)
	}
	for i, c := range chunks {
		chunks[i] = conv(c)
	}
	return hostile{formatV1, kindChunked, udims}.build(chunkTable(uint64(extent), uint64(len(chunks)), chunks))
}

// TestDecompressChunkV1Containers: partial decompression must read both a
// v1 outer container holding v2 chunks and a fully legacy v1-everywhere
// container, bit-identically to the v2 stream.
func TestDecompressChunkV1Containers(t *testing.T) {
	_, _, stream := chunkTestStream(t)
	_, _, chunks, err := parseChunked(stream)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressChunk(stream, 0)
	if err != nil {
		t.Fatal(err)
	}

	v1outer := buildV1Chunked(t, stream, func(c []byte) []byte { return c })
	fullV1 := buildV1Chunked(t, stream, func(c []byte) []byte { return toV1(t, c) })

	for name, s := range map[string][]byte{"v1-outer": v1outer, "full-v1": fullV1} {
		got, err := DecompressChunk(s, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Data) != len(want.Data) {
			t.Fatalf("%s: %d values, want %d", name, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: decode differs at %d", name, i)
			}
		}
		if _, err := DecompressChunk(s, len(chunks)); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s out-of-range: got %v, want ErrBadOptions", name, err)
		}
	}
}

// TestCompressChunkedHugeExtent: an extent past dims[0] is one chunk,
// stored as dims[0], so the container reads back through every door.
// Extents above maxDim used to be written as given, and the readers
// rejected the container they had just been handed.
func TestCompressChunkedHugeExtent(t *testing.T) {
	dims := []int{8, 8, 8}
	data := make([]float64, 512)
	for i := range data {
		data[i] = math.Sin(float64(i) / 7)
	}
	opts := Options{Algorithm: SZ3, ErrorBound: 1e-3, Workers: 2}
	for _, extent := range []int{9, 1 << 41, math.MaxInt} {
		stream, err := CompressChunked(data, dims, opts, extent)
		if err != nil {
			t.Fatalf("extent %d: %v", extent, err)
		}
		info, err := Inspect(stream)
		if err != nil {
			t.Fatalf("extent %d: Inspect: %v", extent, err)
		}
		if info.Chunks != 1 || info.ChunkExtent != dims[0] {
			t.Errorf("extent %d: %d chunks of extent %d, want 1 of %d", extent, info.Chunks, info.ChunkExtent, dims[0])
		}
		if err := sameVerdict(t, stream); err != nil {
			t.Errorf("extent %d: %v", extent, err)
		}
	}
}

// TestChunkShapeChecked: a chunk whose own header is valid but whose dims
// are not its slot's — {hi−lo, dims[1:]…} — is ErrCorrupt through every
// door, whether or not it holds the slot's point count. It used to be
// decoded as found: reshaped into the whole field, or handed out alone by
// DecompressChunk.
func TestChunkShapeChecked(t *testing.T) {
	dims := []int{8, 8, 8}
	data := make([]float64, 512)
	for i := range data {
		data[i] = math.Cos(float64(i) / 5)
	}
	opts := Options{Algorithm: SZ3, ErrorBound: 1e-3}
	stream, err := CompressChunked(data, dims, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, extent, chunks, err := parseChunked(stream)
	if err != nil || extent != 4 || len(chunks) != 2 {
		t.Fatalf("extent %d, %d chunks, %v", extent, len(chunks), err)
	}
	for _, wrong := range [][]int{{4, 4, 16}, {2, 8, 8}, {4, 64}, {4, 8, 8, 1}} {
		n := 1
		for _, d := range wrong {
			n *= d
		}
		c0, err := Compress(data[:n], wrong, opts)
		if err != nil {
			t.Fatal(err)
		}
		bad := hostile{formatVersion, kindChunked, []uint64{8, 8, 8}}.build(chunkTable(4, 2, [][]byte{c0, chunks[1]}))
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("chunk 0 of dims %v: Decompress: got %v, want ErrCorrupt", wrong, err)
		}
		if _, err := DecompressChunk(bad, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("chunk 0 of dims %v: DecompressChunk: got %v, want ErrCorrupt", wrong, err)
		}
		if _, err := Inspect(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("chunk 0 of dims %v: Inspect: got %v, want ErrCorrupt", wrong, err)
		}
	}
}
