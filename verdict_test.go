package scdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
// Every golden stream (the sharded index sub-format among them, which no
// encoder writes now) and a fresh stream of every algorithm (QP on and
// off where it applies, chunked) has its payload cut and
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
	if streams["sz3_3d_qpon_sharded.scdc"] == nil {
		t.Fatal("golden corpus: no sharded index pin (sz3_3d_qpon_sharded)")
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

// hostilePoints is the size of the field every hostile index block is
// sealed over.
const hostilePoints = 1700

// hostileIndexCounts returns three sealed SZ3 streams over a 1700-point
// field, a few hundred bytes each, whose index block (hostileCountBlocks)
// declares far more symbols than the field has points.
func hostileIndexCounts(t testing.TB) map[string][]byte {
	t.Helper()
	return sz3IndexStreams(t, hostilePoints, hostileCountBlocks())
}

// hostileCountBlocks returns three index blocks that declare far more
// symbols than the 1700-point field has and carry enough zero bytes to
// make the count plausible to the entropy decoder on its own: a rice
// block (0x00 0x02) of 2·10⁸ all-center symbols at 1024 per body byte,
// and a legacy and a one-shard sharded (0x00 0x01) Huffman block of a
// one-bit code at 8 per body byte. Everything else in them is well-formed.
func hostileCountBlocks() map[string][]byte {
	const riceCount, huffBody = 200_000_000, 400_000
	rice := binary.AppendUvarint([]byte{0x00, 0x02}, riceCount)
	rice = append(rice, 0) // center
	rice = append(rice, make([]byte, riceCount/1024+1)...)
	return map[string][]byte{
		"rice":    rice,
		"huffman": huffBlock(nil, 8*huffBody, twoCodes, make([]byte, huffBody)),
		"sharded": huffBlock([]byte{0x00, 0x01}, 8*huffBody, twoCodes, oneShard(8*huffBody, huffBody)),
	}
}

// twoCodes is a table of two 1-bit codes: 7 is "0", 9 is "1".
var twoCodes = [][2]int64{{7, 1}, {9, 1}}

// huffBlock assembles a Huffman index block: the marker bytes (none for
// the plain layout), a header that declares n samples and, after the
// run-coded layout's counts and symbols in pre, the table of (symbol,
// code length) pairs, then rest.
func huffBlock(marker []byte, n uint64, table [][2]int64, rest []byte, pre ...int64) []byte {
	hdr := binary.AppendUvarint(nil, n)
	for i, v := range pre {
		if i == 0 {
			hdr = binary.AppendUvarint(hdr, uint64(v))
		} else {
			hdr = binary.AppendVarint(hdr, v)
		}
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(table)))
	prev := int64(0)
	for _, e := range table {
		hdr = binary.AppendUvarint(binary.AppendVarint(hdr, e[0]-prev), uint64(e[1]))
		prev = e[0]
	}
	b := append(binary.AppendUvarint(bytes.Clone(marker), uint64(len(hdr))), hdr...)
	return append(b, rest...)
}

// oneShard is a shard directory of one shard of n symbols and its body
// of zero bytes.
func oneShard(n, bodyLen uint64) []byte {
	dir := binary.AppendUvarint(binary.AppendUvarint([]byte{1}, n), bodyLen)
	return append(dir, make([]byte, bodyLen)...)
}

// sz3IndexStreams seals each index block as the only block of an SZ3
// stream over a 1D field of the given points: interpolation mode, QP off,
// bound 1e-3, no literals.
func sz3IndexStreams(t testing.TB, points uint64, blocks map[string][]byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, index := range blocks {
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

// hostileBlockStreams seals the blocks of hostileBlocks over the
// 1700-point field.
func hostileBlockStreams(t testing.TB) map[string][]byte {
	t.Helper()
	return sz3IndexStreams(t, hostilePoints, hostileBlocks())
}

// hostileBlocks returns Huffman index blocks that lie to the one block
// reader whatever count its caller expects, each in a layout that can
// carry the lie. The run-coded blocks (0x00 0x03) declare the right point
// count and code the modal symbol 7's runs with the digits 5 (RUNA, code
// 0) and 6 (RUNB, code 10), and the symbol 8 as 11, unless they lie about
// that: a run that passes the count, a run of 64 digits, more codes than
// points, no codes, more codes than the body holds, a table without the
// digits, an empty table, digits that collide with the modal symbol, and
// a body cut before its last code. The plain and sharded (0x00 0x01)
// blocks lie with an empty table or more samples than their bytes hold,
// and a sharded one declares no samples.
func hostileBlocks() map[string][]byte {
	const points = hostilePoints
	codes := [][2]int64{{5, 1}, {6, 2}, {8, 2}}
	block := func(m, runA int64, table [][2]int64, bits string) []byte {
		body := make([]byte, (len(bits)+7)/8)
		for i, c := range bits {
			if c == '1' {
				body[i/8] |= 0x80 >> (i % 8)
			}
		}
		return huffBlock([]byte{0x00, 0x03}, points, table, body, m, 7, runA)
	}
	// Every point the symbol 8: 3400 bits, cut short by a byte.
	whole := block(points, 5, codes, strings.Repeat("11", points))
	// A body with room for one-bit codes of every point.
	room := make([]byte, (points+7)/8)
	return map[string][]byte{
		"run past the count":     block(12, 5, codes, strings.Repeat("0", 11)+"11"),
		"64 digits":              block(64, 5, codes, strings.Repeat("0", 64)),
		"more codes than points": block(points+1, 5, codes, strings.Repeat("0", points+7)),
		"no codes":               block(0, 5, codes, strings.Repeat("0", 80)),
		"codes past the body":    block(points, 5, codes, strings.Repeat("0", 80)),
		"no digits in table":     block(10, 5, [][2]int64{{8, 1}}, strings.Repeat("0", 10)),
		"run-coded empty table":  block(points, 5, nil, strings.Repeat("0", points)),
		"RUNA is modal":          block(10, 7, codes, strings.Repeat("0", 10)),
		"RUNB is modal":          block(10, 6, codes, strings.Repeat("0", 10)),
		"truncated body":         whole[:len(whole)-1],
		"plain empty table":      huffBlock(nil, points, nil, room),
		"plain past the body":    huffBlock(nil, points, twoCodes, make([]byte, 10)),
		"sharded empty table":    huffBlock([]byte{0x00, 0x01}, points, nil, oneShard(points, uint64(len(room)))),
		"sharded past the body":  huffBlock([]byte{0x00, 0x01}, points, twoCodes, oneShard(points, 10)),
		"sharded, no samples":    huffBlock([]byte{0x00, 0x01}, 0, twoCodes, oneShard(points, uint64(len(room)))),
	}
}

// decodeTimeLies are the blocks of hostileBlocks whose lie is in their runs
// or body, which the decoder meets only while decoding.
var decodeTimeLies = map[string]bool{"run past the count": true, "64 digits": true, "truncated body": true}

// TestHostileIndexCount: the index decoders are told how many symbols the
// field has, so a block that declares another count is ErrCorrupt before
// its output is allocated — through every reader, for the price of the
// plaintext and nothing proportional to the lie. A block that lies in its
// counts, runs, codes, table or body whatever count its reader expects
// (hostileBlocks) is ErrCorrupt for the same price, through the container
// and through the Huffman readers themselves, with or without the count,
// and one that lies in its header fails in the header reader.
func TestHostileIndexCount(t *testing.T) {
	counts, lies := hostileCountBlocks(), hostileBlocks()
	streams := hostileIndexCounts(t)
	maps.Copy(streams, hostileBlockStreams(t))
	for name, stream := range streams {
		if len(stream) > 1024 {
			t.Errorf("%s: stream is %d bytes, want a few hundred", name, len(stream))
		}
		block, told := lies[name], true
		if block == nil {
			block, told = counts[name], false
		}
		readers := map[string]func() error{
			"Decompress":         func() error { _, err := Decompress(stream); return err },
			"DecompressParallel": func() error { _, err := DecompressParallel(stream, 2); return err },
			"DecompressChunk":    func() error { _, err := DecompressChunk(stream, 0); return err },
		}
		// DecodeTo takes its output only once the header reader
		// has passed the block, so every lie but those in the runs or the
		// body must be turned away before out is called.
		decodeTo := func(n int) func() error {
			return func() error {
				_, err := huffman.DecodeTo(block, n, func(n int) []int32 {
					if !decodeTimeLies[name] {
						t.Errorf("%s: the header reader passed the block", name)
					}
					return make([]int32, n)
				})
				return err
			}
		}
		if name != "rice" {
			readers["huffman.DecodeN"] = func() error {
				_, err := huffman.DecodeN(block, hostilePoints)
				return err
			}
			readers["huffman.DecodeTo"] = decodeTo(hostilePoints)
		}
		if told {
			// A count lie is a lie only to a reader told the count.
			readers["huffman.Decode"] = func() error { _, err := huffman.Decode(block); return err }
			readers["huffman.DecodeTo, no count"] = decodeTo(-1)
		}
		for reader, decode := range readers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
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
