package scdc

import "fmt"

// StreamInfo describes a compressed stream's container metadata without
// decompressing the payload.
type StreamInfo struct {
	// Version is the container format version.
	Version int
	// Integrity reports whether the stream carries a verified CRC32C
	// footer (format v2). Legacy v1 streams have no footer and report
	// false; a v2 stream with a mismatching footer fails Inspect with
	// ErrIntegrity instead.
	Integrity bool
	// Chunked reports a multi-chunk container (CompressChunked).
	Chunked bool
	// Algorithm is the compressor (first chunk's, for chunked streams).
	Algorithm Algorithm
	// Dims are the full field extents.
	Dims []int
	// Points is the total sample count.
	Points int
	// PayloadBytes is the stream size minus the container header.
	PayloadBytes int
	// Chunks is the number of chunks (1 for plain streams).
	Chunks int
	// ChunkExtent is the per-chunk extent along Dims[0] (chunked only).
	ChunkExtent int
	// ChunkBytes lists each chunk's compressed size (chunked only).
	ChunkBytes []int
}

// Inspect parses a stream's container header. It reads only metadata —
// no decompression happens, so it is safe and fast on large streams — and
// rejects every header Decompress rejects, with the same sentinel:
// ErrIntegrity or ErrCorrupt, nothing else.
func Inspect(stream []byte) (*StreamInfo, error) {
	h, err := parseHeader(stream, true)
	if err != nil {
		return nil, err
	}
	info := &StreamInfo{
		Version:      int(h.version),
		Integrity:    h.version >= formatVersion,
		Algorithm:    Algorithm(h.kind),
		Dims:         h.dims,
		Points:       h.points,
		PayloadBytes: len(h.payload),
		Chunks:       1,
	}
	if h.kind != kindChunked {
		return info, nil
	}
	var chunks [][]byte
	if info.ChunkExtent, chunks, err = parseChunkTable(h); err != nil {
		return nil, err
	}
	info.Chunked, info.Chunks, info.PayloadBytes = true, len(chunks), 0
	for _, c := range chunks {
		info.ChunkBytes = append(info.ChunkBytes, len(c))
		info.PayloadBytes += len(c)
	}
	// The container's footer pass already covered every chunk byte, so
	// chunk 0's own CRC32C is not verified again: inspecting a 1000-chunk
	// stream costs one CRC pass (see BenchmarkInspectChunked).
	c0, err := parseChunk(h, info.ChunkExtent, chunks, 0, false)
	if err != nil {
		return nil, fmt.Errorf("chunk 0: %w", err)
	}
	info.Algorithm = Algorithm(c0.kind)
	return info, nil
}
