package scdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestChunkedNonDividingExtent round-trips with a chunk extent that does
// not divide dims[0], so the last chunk is short.
func TestChunkedNonDividingExtent(t *testing.T) {
	data, dims := chunkedField(t) // dims[0] = 24
	extent := 7                   // chunks of 7, 7, 7, 3
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-4, Workers: 2}, extent)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecompressParallel(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != len(data) {
		t.Fatalf("got %d values, want %d", len(res.Data), len(data))
	}
	// The last short chunk must decompress alone with its true extent.
	last, err := DecompressChunk(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	if last.Dims[0] != dims[0]-3*extent {
		t.Fatalf("last chunk dims = %v, want leading extent %d", last.Dims, dims[0]-3*extent)
	}
	sliceLen := len(data) / dims[0]
	if len(last.Data) != last.Dims[0]*sliceLen {
		t.Fatalf("last chunk has %d values", len(last.Data))
	}
}

// TestChunkedRejectsMismatchedChunk builds a syntactically valid chunked
// container whose embedded chunk decodes to the wrong size; the decoder
// must reject it instead of copying over neighboring regions.
func TestChunkedRejectsMismatchedChunk(t *testing.T) {
	data, dims := chunkedField(t)
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-4, Workers: 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the container layout to find the chunk boundaries.
	wrong, err := Compress(data[:2*len(data)/dims[0]],
		append([]int{2}, dims[1:]...), Options{Algorithm: SZ3, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the container, replacing chunk 1 (extent 6) with a stream
	// that decodes to extent 2.
	var out []byte
	out = append(out, stream[:7]...) // magic, version, 0xFF, nd
	buf := stream[7:]
	for i := 0; i < len(dims)+2; i++ { // dims, extent, count
		_, k := binary.Uvarint(buf)
		out = append(out, buf[:k]...)
		buf = buf[k:]
	}
	for i := 0; i < 4; i++ {
		l, k := binary.Uvarint(buf)
		chunk := buf[k : k+int(l)]
		buf = buf[k+int(l):]
		if i == 1 {
			chunk = wrong
		}
		out = binary.AppendUvarint(out, uint64(len(chunk)))
		out = append(out, chunk...)
	}
	// Re-seal the rebuilt container so the integrity footer passes and the
	// structural chunk-size check is what rejects it.
	out = appendFooter(out)
	if _, err := DecompressParallel(out, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched chunk not rejected: %v", err)
	}
}

// TestChunkedCorruptFuzz mutates and truncates a chunked container at many
// offsets; the parser must return an error or a correct result, never
// panic.
func TestChunkedCorruptFuzz(t *testing.T) {
	data, dims := chunkedField(t)
	stream, err := CompressChunked(data, dims, Options{Algorithm: SZ3, RelativeBound: 1e-4, Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(stream); l += 41 {
		_, _ = DecompressParallel(stream[:l], 2)
	}
	for i := 0; i < len(stream); i += 23 {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x5A
		_, _ = DecompressParallel(mut, 2)
		_, _ = DecompressChunk(mut, 0)
	}
}

// TestDecompressParallelFacade verifies the public parallel knobs end to
// end: neither Workers nor the ignored Shards changes a single stream's
// bytes, and DecompressParallel must reconstruct bit-identically to
// Decompress for every interpolation-based algorithm, with and without QP.
func TestDecompressParallelFacade(t *testing.T) {
	data, dims := chunkedField(t)
	for _, alg := range []Algorithm{SZ3, QoZ, HPEZ, MGARD} {
		for _, qp := range []bool{false, true} {
			opts := Options{Algorithm: alg, RelativeBound: 1e-4}
			if qp {
				opts.QP = DefaultQP()
			}
			seqStream, err := Compress(data, dims, opts)
			if err != nil {
				t.Fatalf("%v qp=%v: %v", alg, qp, err)
			}
			// Shards is ignored: no value may bring back the sharded
			// index layout (0x00 0x01).
			opts.Shards = 4
			sharded, err := Compress(data, dims, opts)
			if err != nil {
				t.Fatalf("%v qp=%v shards: %v", alg, qp, err)
			}
			if !bytes.Equal(sharded, seqStream) {
				t.Errorf("%v qp=%v: Shards 4 changed the stream", alg, qp)
			}
			opts.Workers = 4
			parStream, err := Compress(data, dims, opts)
			if err != nil {
				t.Fatalf("%v qp=%v parallel: %v", alg, qp, err)
			}
			if !bytes.Equal(parStream, seqStream) {
				t.Errorf("%v qp=%v: worker count changed the stream", alg, qp)
			}
			a, err := Decompress(seqStream)
			if err != nil {
				t.Fatalf("%v qp=%v: %v", alg, qp, err)
			}
			b, err := DecompressParallel(parStream, 4)
			if err != nil {
				t.Fatalf("%v qp=%v: %v", alg, qp, err)
			}
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("%v qp=%v: parallel output differs at %d", alg, qp, i)
				}
			}
		}
	}
}
