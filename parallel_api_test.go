package scdc

import (
	"bytes"
	"errors"
	"testing"

	"scdc/datasets"
)

func chunkedField(t *testing.T) ([]float64, []int) {
	t.Helper()
	data, dims, err := datasets.Generate("SCALE", 0, []int{24, 40, 48}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return data, dims
}

func TestChunkedRoundTrip(t *testing.T) {
	data, dims := chunkedField(t)
	for _, workers := range []int{1, 3} {
		for _, extent := range []int{0, 1, 5, 24, 100} {
			stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-4, QP: DefaultQP(), Workers: workers}, extent)
			if err != nil {
				t.Fatalf("workers=%d extent=%d: %v", workers, extent, err)
			}
			res, err := DecompressParallel(stream, workers)
			if err != nil {
				t.Fatalf("workers=%d extent=%d: %v", workers, extent, err)
			}
			if res.Algorithm != SZ3 || len(res.Data) != len(data) {
				t.Fatal("result shape wrong")
			}
			maxErr, _ := MaxAbsError(data, res.Data)
			lo, hi := data[0], data[0]
			for _, v := range data {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if maxErr > 1e-4*(hi-lo)*(1+1e-12) {
				t.Fatalf("workers=%d extent=%d: bound violated (%g)", workers, extent, maxErr)
			}
		}
	}
}

func TestChunkedDeterministicAcrossWorkers(t *testing.T) {
	data, dims := chunkedField(t)
	a, err := CompressChunked(data, dims, Options{Algorithm: QoZ, RelativeBound: 1e-4, Workers: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressChunked(data, dims, Options{Algorithm: QoZ, RelativeBound: 1e-4, Workers: 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("worker count changed the stream: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("worker count changed stream bytes")
		}
	}
}

// TestChunkedDefaultExtent: chunkExtent 0 takes the extent from the field
// alone — the smallest whose chunks hold 2^20 points, at most dims[0] — so
// Workers 1, 2 and 4 write the same bytes, and Inspect reports that extent.
func TestChunkedDefaultExtent(t *testing.T) {
	for _, tc := range []struct {
		n0, n1, n2     int
		extent, chunks int
	}{
		{16, 12, 10, 16, 1}, // ceil(2^20/120) = 8739, capped at dims[0]
		{5, 512, 512, 4, 2}, // 2^20/2^18
	} {
		data, dims := statsTestField(tc.n0, tc.n1, tc.n2)
		var ref []byte
		for _, workers := range []int{1, 2, 4} {
			stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-3, Workers: workers}, 0)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", dims, workers, err)
			}
			if ref == nil {
				info, err := Inspect(stream)
				if err != nil {
					t.Fatal(err)
				}
				if info.ChunkExtent != tc.extent || info.Chunks != tc.chunks {
					t.Errorf("%v: extent %d in %d chunks, want %d in %d", dims, info.ChunkExtent, info.Chunks, tc.extent, tc.chunks)
				}
				ref = stream
			} else if !bytes.Equal(stream, ref) {
				t.Errorf("%v: workers=%d wrote %d bytes, workers=1 %d bytes", dims, workers, len(stream), len(ref))
			}
		}
	}
}

func TestPartialDecompression(t *testing.T) {
	data, dims := chunkedField(t)
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-4, Workers: 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 covers rows [6, 12).
	res, err := DecompressChunk(stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dims[0] != 6 {
		t.Fatalf("chunk dims = %v", res.Dims)
	}
	sliceLen := len(data) / dims[0]
	want := data[6*sliceLen : 12*sliceLen]
	maxErr, _ := MaxAbsError(want, res.Data)
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if maxErr > 1e-4*(hi-lo)*(1+1e-12) {
		t.Fatalf("partial chunk bound violated: %g", maxErr)
	}
	if _, err := DecompressChunk(stream, 99); err == nil {
		t.Error("out-of-range chunk accepted")
	}
}

func TestChunkedErrors(t *testing.T) {
	data, dims := chunkedField(t)
	if _, err := CompressChunked(data, []int{len(data)}, Options{Algorithm: SZ3, ErrorBound: 1e-3}, 0); err == nil {
		t.Error("1D chunking accepted")
	}
	if _, err := CompressChunked(data[:7], dims, Options{Algorithm: SZ3, ErrorBound: 1e-3}, 0); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := CompressChunked(data, dims, Options{Algorithm: SZ3}, 0); err == nil {
		t.Error("missing bound accepted")
	}
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-3, Workers: 2}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressParallel(stream[:20], 2); err == nil {
		t.Error("truncated chunked stream accepted")
	}
	// One door: Decompress reads the chunked stream, and DecompressChunk
	// reads a plain stream as its own only chunk.
	if _, err := Decompress(stream); err != nil {
		t.Errorf("chunked stream through Decompress: %v", err)
	}
	plain, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressChunk(plain, 0); err != nil {
		t.Errorf("plain stream as chunk 0: %v", err)
	}
	if _, err := DecompressChunk(plain, 1); !errors.Is(err, ErrBadOptions) {
		t.Errorf("chunk 1 of a plain stream: got %v, want ErrBadOptions", err)
	}
}
