package scdc

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// hostile is a hand-built container prologue: version, kind byte and raw
// uvarint dims, so a test can declare what no writer would.
type hostile struct {
	version, kind byte
	dims          []uint64
}

// build lays the prologue out in front of payload and, for a v2 header,
// seals it with a valid footer so only the prologue is at fault.
func (p hostile) build(payload []byte) []byte {
	s := append([]byte(nil), magic[:]...)
	s = append(s, p.version, p.kind, byte(len(p.dims)))
	for _, d := range p.dims {
		s = binary.AppendUvarint(s, d)
	}
	s = append(s, payload...)
	if p.version == formatVersion {
		s = appendFooter(s)
	}
	return s
}

// chunkTable lays out a chunked payload: extent, count, length-prefixed
// chunks, then tail.
func chunkTable(extent, count uint64, chunks [][]byte, tail ...byte) []byte {
	b := binary.AppendUvarint(nil, extent)
	b = binary.AppendUvarint(b, count)
	for _, c := range chunks {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return append(b, tail...)
}

// sentinel reduces an error to the class a caller can test for.
func sentinel(err error) error {
	for _, s := range []error{ErrCorrupt, ErrIntegrity, ErrBadOptions} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// sameVerdict runs Inspect, Decompress and DecompressChunk(…, 0) on one
// stream and requires one verdict: all reject with the same sentinel, or
// all accept and agree on algorithm, dims and points. It returns the
// shared sentinel (nil on accept).
func sameVerdict(t *testing.T, stream []byte) error {
	t.Helper()
	info, ierr := Inspect(stream)
	res, derr := Decompress(stream)
	c0, cerr := DecompressChunk(stream, 0)
	want := sentinel(derr)
	if sentinel(ierr) != want || sentinel(cerr) != want {
		t.Fatalf("verdicts differ: Inspect %v; Decompress %v; DecompressChunk %v", ierr, derr, cerr)
	}
	if want != nil {
		if want != ErrCorrupt && want != ErrIntegrity {
			t.Fatalf("untyped rejection: %v", derr)
		}
		return want
	}
	if info.Algorithm != res.Algorithm || !slices.Equal(info.Dims, res.Dims) || info.Points != len(res.Data) {
		t.Fatalf("Inspect says %v %v, %d points; Decompress %v %v, %d values",
			info.Algorithm, info.Dims, info.Points, res.Algorithm, res.Dims, len(res.Data))
	}
	dims0 := slices.Clone(info.Dims)
	if info.Chunked {
		dims0[0] = min(info.ChunkExtent, dims0[0])
	}
	if c0.Algorithm != info.Algorithm || !slices.Equal(c0.Dims, dims0) {
		t.Fatalf("chunk 0 is %v %v, want %v %v", c0.Algorithm, c0.Dims, info.Algorithm, dims0)
	}
	if !info.Chunked {
		return nil
	}
	// The whole-field decode is the concatenation of the chunks, bit for
	// bit, at every worker count.
	var cat []float64
	for i := 0; i < info.Chunks; i++ {
		c, err := DecompressChunk(stream, i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		cat = append(cat, c.Data...)
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := DecompressParallel(stream, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.EqualFunc(got.Data, cat, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("workers=%d: decode is not the concatenation of the chunks", workers)
		}
	}
	return nil
}

// TestSameVerdict: one header reader means one answer. Every stream the
// package has ever written is accepted by all three readers with the same
// metadata, and every hostile prologue is rejected by all three with the
// same sentinel.
func TestSameVerdict(t *testing.T) {
	accept := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.scdc"))
	if err != nil || len(files) < 40 {
		t.Fatalf("golden corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		if accept[filepath.Base(f)], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	data, dims, chunked := chunkTestStream(t)
	plain, err := Compress(data, dims, Options{Algorithm: HPEZ, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	v1Chunked := buildV1Chunked(t, chunked, func(c []byte) []byte { return toV1(t, c) })
	accept["fresh-chunked"] = chunked
	accept["v1-chunked"] = v1Chunked
	accept["v1-outer-v2-chunks"] = buildV1Chunked(t, chunked, func(c []byte) []byte { return c })
	for name, s := range accept {
		t.Run("accept/"+name, func(t *testing.T) {
			if err := sameVerdict(t, s); err != nil {
				t.Fatalf("rejected: %v", err)
			}
		})
	}

	_, extent, chunks, err := parseChunked(chunked)
	if err != nil {
		t.Fatal(err)
	}
	udims := make([]uint64, len(dims))
	for i, d := range dims {
		udims[i] = uint64(d)
	}
	container := func(table []byte) []byte {
		return hostile{formatVersion, kindChunked, udims}.build(table)
	}
	mutate := func(s []byte, at int, to byte) []byte {
		m := slices.Clone(s)
		m[at] = to
		return m
	}
	const big = 1 << 40
	tiny := []byte("tiny")
	reject := map[string]struct {
		stream []byte
		want   error
	}{
		"empty":              {nil, ErrCorrupt},
		"bad-magic":          {mutate(toV1(t, plain), 2, 'X'), ErrCorrupt},
		"bad-version":        {mutate(toV1(t, plain), 4, 3), ErrCorrupt},
		"bad-version-v2":     {mutate(plain, 4, 0), ErrCorrupt},
		"unknown-algorithm":  {hostile{formatVersion, byte(numAlgorithms), []uint64{4, 4}}.build(tiny), ErrCorrupt},
		"nd-0":               {hostile{formatVersion, byte(SZ3), nil}.build(tiny), ErrCorrupt},
		"nd-5":               {hostile{formatVersion, byte(SZ3), []uint64{2, 2, 2, 2, 2}}.build(tiny), ErrCorrupt},
		"nd-5-chunked":       {hostile{formatV1, kindChunked, []uint64{2, 2, 2, 2, 2}}.build(tiny), ErrCorrupt},
		"zero-dim":           {hostile{formatVersion, byte(SZ3), []uint64{4, 0, 4}}.build(tiny), ErrCorrupt},
		"dim-over-cap":       {hostile{formatV1, byte(SZ3), []uint64{big + 1}}.build(tiny), ErrCorrupt},
		"overflow":           {hostile{formatV1, byte(SZ3), []uint64{big, big, big, big}}.build(tiny), ErrCorrupt},
		"overflow-chunked":   {hostile{formatVersion, kindChunked, []uint64{big, big, big, big}}.build(tiny), ErrCorrupt},
		"huge-vs-payload":    {hostile{formatVersion, byte(SZ3), []uint64{1 << 20, 1 << 20, 1 << 5}}.build(tiny), ErrCorrupt},
		"no-payload":         {hostile{formatVersion, byte(SZ3), []uint64{4, 4}}.build(nil), ErrCorrupt},
		"chunked-1d":         {hostile{formatVersion, kindChunked, []uint64{16}}.build(tiny), ErrCorrupt},
		"zero-extent":        {container(chunkTable(0, uint64(len(chunks)), chunks)), ErrCorrupt},
		"lying-extent":       {container(chunkTable(uint64(extent)+1, uint64(len(chunks)), chunks)), ErrCorrupt},
		"lying-count":        {container(chunkTable(uint64(extent), uint64(len(chunks))+1, chunks)), ErrCorrupt},
		"count-over-bytes":   {hostile{formatV1, kindChunked, []uint64{1 << 30, 1 << 4}}.build(chunkTable(1, 1<<30, nil, make([]byte, 1<<17)...)), ErrCorrupt},
		"truncated-chunk":    {container(chunkTable(uint64(extent), uint64(len(chunks)), chunks[:len(chunks)-1])), ErrCorrupt},
		"trailing-bytes":     {container(chunkTable(uint64(extent), uint64(len(chunks)), chunks, 0)), ErrCorrupt},
		"nested-chunk":       {container(chunkTable(uint64(dims[0]), 1, [][]byte{chunked})), ErrCorrupt},
		"nested-chunk-v1":    {hostile{formatV1, kindChunked, udims}.build(chunkTable(uint64(dims[0]), 1, [][]byte{v1Chunked})), ErrCorrupt},
		"flipped-footer":     {mutate(plain, len(plain)-1, plain[len(plain)-1]^1), ErrIntegrity},
		"flipped-footer-chk": {mutate(chunked, len(chunked)-3, chunked[len(chunked)-3]^0x10), ErrIntegrity},
		"flipped-dims-v2":    {mutate(plain, 7, plain[7]^1), ErrIntegrity},
	}
	for name, c := range reject {
		t.Run("reject/"+name, func(t *testing.T) {
			if got := sameVerdict(t, c.stream); got != c.want {
				t.Fatalf("verdict %v, want %v", got, c.want)
			}
		})
	}

	// Truncation at every prologue offset: the legacy layouts fail on
	// structure, the v2 ones on structure or on the footer that is no
	// longer where it was — never accepted, never split.
	prologue := 7 + len(dims) // one-byte uvarint dims
	for name, s := range map[string][]byte{"v1": toV1(t, plain), "v2": plain, "v1-chunked": v1Chunked, "v2-chunked": chunked} {
		for l := 0; l <= prologue; l++ {
			want := ErrCorrupt
			if s[4] == formatVersion && l >= 5+footerSize {
				want = ErrIntegrity
			}
			if got := sameVerdict(t, s[:l]); got != want {
				t.Fatalf("%s truncated to %d bytes: verdict %v, want %v", name, l, got, want)
			}
		}
	}
}
