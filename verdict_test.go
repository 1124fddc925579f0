package scdc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"scdc/internal/grid"
	"scdc/internal/huffman"
	"scdc/internal/lossless"
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

// form rebuilds a stream in container version v: the prologue as parsed,
// the given payload, and for v2 a footer that matches — so whatever is
// wrong with the result is wrong with the payload, not with the seal.
func (h header) form(v byte, payload []byte) []byte {
	udims := make([]uint64, len(h.dims))
	for i, d := range h.dims {
		udims[i] = uint64(d)
	}
	return hostile{v, h.kind, udims}.build(payload)
}

// spread is a handful of offsets across n bytes: both ends, the five-byte
// cut of the issue's reproduction, and points in between.
func spread(n int) []int {
	var at []int
	for _, o := range []int{0, 1, n / 7, n / 3, n / 2, 2 * n / 3, n - 5, n - 1} {
		if o >= 0 && o < n && !slices.Contains(at, o) {
			at = append(at, o)
		}
	}
	return at
}

// damagedPayloads cuts p at each offset of the spread and flips one byte
// at each.
func damagedPayloads(p []byte) map[string][]byte {
	out := map[string][]byte{}
	for i, o := range spread(len(p)) {
		out[fmt.Sprintf("cut@%d", o)] = p[:o]
		m := slices.Clone(p)
		m[o] ^= [...]byte{0x01, 0x80, 0xFF, 0x10}[i%4]
		out[fmt.Sprintf("flip@%d", o)] = m
	}
	return out
}

// damagedStreams returns copies of a stream with its payload damaged and
// every footer over the damage re-sealed, in v2 and in footer-less v1
// form. A plain stream's payload is the engine's; a chunked container's
// is its first and last chunk streams, damaged the same way and put back
// among their intact siblings.
func damagedStreams(t testing.TB, stream []byte) map[string][]byte {
	t.Helper()
	h, err := parseHeader(stream, true)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	if h.kind != kindChunked {
		for what, p := range damagedPayloads(h.payload) {
			out["v1/"+what] = h.form(formatV1, p)
			out["v2/"+what] = h.form(formatVersion, p)
		}
		return out
	}
	extent, chunks, err := parseChunkTable(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, len(chunks) - 1} {
		for what, c := range damagedStreams(t, chunks[j]) {
			table := chunkTable(uint64(extent), uint64(len(chunks)), slices.Concat(chunks[:j:j], [][]byte{c}, chunks[j+1:]))
			out[fmt.Sprintf("v1/chunk%d/%s", j, what)] = h.form(formatV1, table)
			out[fmt.Sprintf("v2/chunk%d/%s", j, what)] = h.form(formatVersion, table)
		}
	}
	return out
}

// decodeErrors runs every reader over one stream and returns what each
// said. A panic, or a result that does not hold the field its own dims
// announce, fails the test.
func decodeErrors(t *testing.T, name string, stream []byte) map[string]error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: reader panicked: %v", name, r)
		}
	}()
	errs := map[string]error{}
	field := func(reader string, res *Result, err error) {
		errs[reader] = err
		if err != nil {
			return
		}
		if n, derr := grid.CheckDims(res.Dims); derr != nil || n != len(res.Data) {
			t.Errorf("%s: %s returned %d values for dims %v", name, reader, len(res.Data), res.Dims)
		}
	}
	res, err := Decompress(stream)
	field("Decompress", res, err)
	res, err = DecompressParallel(stream, 2)
	field("DecompressParallel", res, err)
	res, err = DecompressObserved(stream, 2)
	field("DecompressObserved", res, err)
	res, err = DecompressChunk(stream, 0)
	field("DecompressChunk", res, err)
	_, errs["Inspect"] = Inspect(stream)
	return errs
}

// TestPayloadDamageVerdict: damage below the container is a verdict too.
// Every golden stream and a fresh stream of every algorithm (QP on and
// off where it applies, sharded, chunked) has its payload cut and
// byte-flipped at a spread of offsets. With the footers re-sealed over
// the damage — or in v1 form, which has none — each reader returns a
// well-formed field or ErrCorrupt, whichever layer met the damage first:
// never a panic, never an unclassified error, never ErrIntegrity, which
// is the footer's verdict alone. With the footer left as it was, every
// reader says ErrIntegrity and nothing below the container runs.
func TestPayloadDamageVerdict(t *testing.T) {
	streams := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.scdc"))
	if err != nil || len(files) < 40 {
		t.Fatalf("golden corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		if streams[filepath.Base(f)], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	data, dims := integrityField(t)
	for alg := SZ3; alg < numAlgorithms; alg++ {
		opts := Options{Algorithm: alg, RelativeBound: 1e-3}
		if streams["fresh-"+alg.String()], err = Compress(data, dims, opts); err != nil {
			t.Fatal(err)
		}
		if !alg.SupportsQP() {
			continue
		}
		opts.QP = DefaultQP()
		if streams["fresh-"+alg.String()+"-qp"], err = Compress(data, dims, opts); err != nil {
			t.Fatal(err)
		}
	}
	if streams["fresh-sharded"], err = Compress(data, dims, Options{Algorithm: QoZ, RelativeBound: 1e-3, QP: DefaultQP(), Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if streams["fresh-chunked"], err = CompressChunked(data, dims, Options{Algorithm: HPEZ, RelativeBound: 1e-3, QP: DefaultQP(), Workers: 2}, 5); err != nil {
		t.Fatal(err)
	}

	for name, stream := range streams {
		resealed, rejected := 0, 0
		for what, damaged := range damagedStreams(t, stream) {
			resealed++
			for reader, err := range decodeErrors(t, name+" "+what, damaged) {
				if err == nil {
					continue
				}
				rejected++
				if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrIntegrity) {
					t.Errorf("%s %s: %s: got %v, want ErrCorrupt", name, what, reader, err)
				}
			}
		}
		// Cutting five bytes off any payload must not go unnoticed.
		if resealed == 0 || rejected == 0 {
			t.Errorf("%s: %d damaged streams, %d rejections", name, resealed, rejected)
		}

		// The same damage under the original footer is the footer's to
		// report (a v1 stream has none, and a v1 golden file is skipped).
		if stream[4] != formatVersion {
			continue
		}
		body := stream[:len(stream)-footerSize]
		for _, o := range spread(len(body) - 5) {
			flipped := slices.Clone(stream)
			flipped[5+o] ^= 0x04
			for what, s := range map[string][]byte{"flip": flipped, "cut": stream[:5+footerSize+o]} {
				for reader, err := range decodeErrors(t, name, s) {
					if !errors.Is(err, ErrIntegrity) || errors.Is(err, ErrCorrupt) {
						t.Errorf("%s unsealed %s@%d: %s: got %v, want ErrIntegrity", name, what, 5+o, reader, err)
					}
				}
			}
		}
	}
}

// hostileIndexCounts returns three sealed SZ3 streams over a 1700-point
// field, a few hundred bytes each, whose index block declares far more
// symbols than the field has points and carries enough zero bytes to make
// the count plausible to the entropy decoder on its own: a rice block
// (0x00 0x02) of 2·10⁸ all-center symbols at 1024 per body byte, and a
// legacy and a one-shard sharded (0x00 0x01) Huffman block of a one-bit
// code at 8 per body byte. Everything else in them is well-formed.
func hostileIndexCounts(t testing.TB) map[string][]byte {
	t.Helper()
	const points = 1700
	const riceCount, huffBody = 200_000_000, 400_000
	rice := binary.AppendUvarint([]byte{0x00, 0x02}, riceCount)
	rice = append(rice, 0) // center
	rice = append(rice, make([]byte, riceCount/1024+1)...)

	// A two-symbol table gives the first symbol the code "0".
	enc := huffman.Encode([]int32{7, 7, 7, 9})
	hdrLen, c := binary.Uvarint(enc)
	hdr := enc[c : c+int(hdrLen)]
	_, k := binary.Uvarint(hdr)
	hdr = append(binary.AppendUvarint(nil, 8*huffBody), hdr[k:]...)
	huff := append(binary.AppendUvarint(nil, uint64(len(hdr))), hdr...)
	sharded := append([]byte{0x00, 0x01}, huff...)
	sharded = binary.AppendUvarint(append(sharded, 1), 8*huffBody)
	sharded = append(binary.AppendUvarint(sharded, huffBody), make([]byte, huffBody)...)
	huff = append(huff, make([]byte, huffBody)...)

	out := map[string][]byte{}
	for name, index := range map[string][]byte{"rice": rice, "huffman": huff, "sharded": sharded} {
		// interp mode, cubic, 1 dim, order {0}; QP off; radius; bound.
		p := binary.AppendUvarint([]byte{0, 1, 1, 0, 0, 0, 0}, 32768)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1e-3))
		p = binary.AppendUvarint(p, uint64(len(index)))
		p = append(append(p, index...), 0) // no literals
		payload, err := lossless.Compress(lossless.Flate, p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = hostile{formatVersion, byte(SZ3), []uint64{points}}.build(payload)
	}
	return out
}

// TestHostileIndexCount: the index decoders are told how many symbols the
// field has, so a block that declares another count is ErrCorrupt before
// its output is allocated — through every reader, for the price of the
// plaintext and nothing proportional to the lie.
func TestHostileIndexCount(t *testing.T) {
	for name, stream := range hostileIndexCounts(t) {
		if len(stream) > 1024 {
			t.Errorf("%s: stream is %d bytes, want a few hundred", name, len(stream))
		}
		for reader, decode := range map[string]func() (*Result, error){
			"Decompress":         func() (*Result, error) { return Decompress(stream) },
			"DecompressParallel": func() (*Result, error) { return DecompressParallel(stream, 2) },
			"DecompressChunk":    func() (*Result, error) { return DecompressChunk(stream, 0) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %s: got %v, want ErrCorrupt", name, reader, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("%s: %s allocated %.1f MB on the way to %v", name, reader, float64(grew)/(1<<20), err)
			}
		}
	}
}
