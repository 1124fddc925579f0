package scdc

import (
	"encoding/binary"
	"fmt"
	"slices"

	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/parallel"
)

// chunkPoints is the smallest number of points a chunk of the default
// extent holds (unless the whole field is smaller).
const chunkPoints = 1 << 20

// CompressChunked partitions the field into chunks along the slowest
// dimension and compresses them independently on up to opts.Workers
// goroutines, each chunk on one. This is the embarrassingly parallel mode
// the paper uses for the RTM transfer experiment (Section VI-E) and the
// natural way to exploit multi-core nodes: QP, like the base compressors,
// is sequential within a chunk but trivially parallel across chunks.
//
// chunkExtent is the extent of each chunk along dims[0] (the last chunk
// takes the remainder). chunkExtent <= 0 selects the smallest extent whose
// chunks hold at least 2^20 points, min(dims[0], ceil(2^20 / slice)) where
// slice is the product of dims[1:]. The stream depends on the field, the
// options other than Workers, and the extent alone: it is byte-identical
// for any worker count. Each chunk is a fully independent stream, so a
// chunked container also supports partial decompression by chunk.
func CompressChunked(data []float64, dims []int, opts Options, chunkExtent int) ([]byte, error) {
	return compressChunkedSpan(data, dims, opts, chunkExtent, nil)
}

// forEachChunk runs fn for each of n chunks on up to workers goroutines
// (at least one) and returns the first failure in chunk order. With telemetry on (sp
// non-nil) fn records under a wall-clock "chunk[i]" span nested in the
// accumulating "worker[w]" span of the pool worker that ran it; worker
// spans are keyed on the pool's stable worker index (each index is owned
// by one goroutine, so lazy creation is race-free).
func forEachChunk(sp *obs.Span, n, workers int, fn func(i int, csp *obs.Span) error) error {
	workers = max(workers, 1)
	var workerSpans []*obs.Span
	if sp != nil {
		workerSpans = make([]*obs.Span, workers)
	}
	return parallel.ForEach(n, workers, func(w, i int) error {
		var csp *obs.Span
		if sp != nil {
			if workerSpans[w] == nil {
				workerSpans[w] = sp.ChildAccum(fmt.Sprintf("worker[%d]", w))
			}
			csp = workerSpans[w].Child(fmt.Sprintf("chunk[%d]", i))
		}
		t0 := csp.Begin()
		err := fn(i, csp)
		if csp != nil {
			csp.End()
			workerSpans[w].AddSince(t0)
		}
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		return nil
	})
}

// compressChunkedSpan is the CompressChunked body with telemetry attached
// to sp (which may be nil).
func compressChunkedSpan(data []float64, dims []int, opts Options, chunkExtent int, sp *obs.Span) ([]byte, error) {
	f, err := grid.FromSlice(data, dims...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("%w: chunked compression needs >= 2 dims", ErrBadOptions)
	}
	// Resolve a relative bound against the whole field so every chunk uses
	// the same absolute bound (chunk-local ranges would break the global
	// guarantee's uniformity).
	eb, err := resolveBound(f, opts)
	if err != nil {
		return nil, err
	}
	// The workers fan out the chunks; within a chunk they would change
	// nothing but the schedule, as in decodeChunks.
	chunkOpts := opts
	chunkOpts.ErrorBound = eb
	chunkOpts.RelativeBound = 0
	chunkOpts.Workers = 1

	n0 := dims[0]
	sliceLen := f.Len() / n0
	if chunkExtent <= 0 {
		chunkExtent = (chunkPoints + sliceLen - 1) / sliceLen
	}
	// An extent past dims[0] is one chunk either way. Storing dims[0]
	// keeps the extent inside what the readers accept (maxDim) and the
	// count below from overflowing.
	chunkExtent = min(chunkExtent, n0)
	nChunks := (n0 + chunkExtent - 1) / chunkExtent

	streams := make([][]byte, nChunks)
	err = forEachChunk(sp, nChunks, opts.Workers, func(i int, csp *obs.Span) (err error) {
		lo, hi := i*chunkExtent, min((i+1)*chunkExtent, n0)
		chunkDims := append([]int{hi - lo}, dims[1:]...)
		streams[i], err = compressSpan(data[lo*sliceLen:hi*sliceLen], chunkDims, chunkOpts, csp)
		csp.Add("bytes_out", int64(len(streams[i])))
		return err
	})
	if err != nil {
		return nil, err
	}

	// Container: the prologue with kind 0xFF, chunk extent, chunk count,
	// length-prefixed chunk streams, then the v2 CRC32C footer over the
	// whole container (each chunk additionally carries its own footer, so
	// partial reads stay verifiable).
	out := appendHeader(make([]byte, 0, 64), kindChunked, dims)
	out = binary.AppendUvarint(out, uint64(chunkExtent))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for _, c := range streams {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	return appendFooter(out), nil
}

// parseChunkTable reads what follows the prologue of a chunked container —
// chunk extent, chunk count, length-prefixed chunk streams — and slices
// the chunks out (no copying). The count must be the one the extent
// implies and is bounded by the bytes present before the table is
// allocated; the chunks must end exactly at the payload's end.
func parseChunkTable(h header) (extent int, chunks [][]byte, err error) {
	if h.kind != kindChunked || len(h.dims) < 2 {
		return 0, nil, fmt.Errorf("%w: not a chunked stream", ErrCorrupt)
	}
	buf := h.payload
	ce, k := binary.Uvarint(buf)
	if k <= 0 || ce == 0 || ce > maxDim {
		return 0, nil, fmt.Errorf("%w: bad chunk extent", ErrCorrupt)
	}
	buf = buf[k:]
	nc, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: bad chunk count", ErrCorrupt)
	}
	buf = buf[k:]
	if nc != (uint64(h.dims[0])+ce-1)/ce || nc > uint64(len(buf)) {
		return 0, nil, fmt.Errorf("%w: %d chunks for extent %d over %d in %d bytes", ErrCorrupt, nc, ce, h.dims[0], len(buf))
	}
	chunks = make([][]byte, nc)
	for i := range chunks {
		l, k := binary.Uvarint(buf)
		if k <= 0 || l > uint64(len(buf)-k) {
			return 0, nil, fmt.Errorf("%w: truncated chunk %d", ErrCorrupt, i)
		}
		chunks[i] = buf[k : k+int(l)]
		buf = buf[k+int(l):]
	}
	if len(buf) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return int(ce), chunks, nil
}

// parseChunk reads the header of chunk i of the chunked container h,
// whose table parseChunkTable returned. A chunk is always a plain stream
// of its slot's shape, {hi−lo, dims[1:]…}, and both are checked before
// anything is decoded: one that is itself a container is corrupt, so
// decoding never recurses, and one of another shape can neither shift its
// neighbours' regions nor be handed out by DecompressChunk as a field the
// container does not hold.
func parseChunk(h header, extent int, chunks [][]byte, i int, verify bool) (header, error) {
	c, err := parseHeader(chunks[i], verify)
	if err != nil {
		return c, err
	}
	if c.kind == kindChunked {
		return c, fmt.Errorf("%w: nested chunked stream", ErrCorrupt)
	}
	slot := append([]int{min((i+1)*extent, h.dims[0]) - i*extent}, h.dims[1:]...)
	if !slices.Equal(c.dims, slot) {
		return c, fmt.Errorf("%w: chunk of dims %v in a %v slot", ErrCorrupt, c.dims, slot)
	}
	return c, nil
}

// decodeChunks decodes a chunked container on up to workers goroutines,
// each chunk by the plain path at one intra-field worker, with telemetry
// attached to sp (which may be nil) in compressChunkedSpan's layout.
func decodeChunks(h header, workers int, sp *obs.Span) (*Result, error) {
	extent, chunks, err := parseChunkTable(h)
	if err != nil {
		return nil, err
	}
	// Each chunk decodes into a field sized by its own header, which was
	// capped against its own payload and matched to its slot; nothing is
	// allocated from the container's declared dims. Results land in
	// per-chunk slots: a shared scalar written from the worker closure
	// would race (parallelpure flags it).
	parts := make([][]float64, len(chunks))
	algs := make([]Algorithm, len(chunks))
	err = forEachChunk(sp, len(chunks), workers, func(i int, csp *obs.Span) error {
		csp.Add("bytes_in", int64(len(chunks[i])))
		ch, err := parseChunk(h, extent, chunks, i, true)
		if err != nil {
			return err
		}
		res, err := decodeField(ch, 1, csp)
		if err != nil {
			return err
		}
		parts[i], algs[i] = res.Data, res.Algorithm
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.Add("chunks", int64(len(chunks)))
	sp.Add("raw_bytes", int64(h.points*8))
	sp.Add("stream_bytes", int64(h.size))
	return &Result{Data: slices.Concat(parts...), Dims: h.dims, Algorithm: algs[0]}, nil
}

// DecompressChunk extracts a single chunk (by index) from a chunked
// stream without touching the others — partial decompression. A plain
// stream is its own only chunk. Errors are Decompress's — ErrIntegrity or
// ErrCorrupt — plus ErrBadOptions for an index the stream has no chunk for.
func DecompressChunk(stream []byte, chunk int) (*Result, error) {
	h, err := parseHeader(stream, true)
	if err != nil {
		return nil, err
	}
	extent, chunks := 0, [][]byte{stream} // a plain stream is its own only chunk
	if h.kind == kindChunked {
		if extent, chunks, err = parseChunkTable(h); err != nil {
			return nil, err
		}
	}
	if chunk < 0 || chunk >= len(chunks) {
		return nil, fmt.Errorf("%w: chunk %d of %d", ErrBadOptions, chunk, len(chunks))
	}
	if h.kind == kindChunked {
		if h, err = parseChunk(h, extent, chunks, chunk, true); err != nil {
			return nil, err
		}
	}
	return decodeField(h, 1, nil)
}
