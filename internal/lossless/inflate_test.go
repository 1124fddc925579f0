package lossless_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scdc"
	"scdc/internal/bench"
	"scdc/internal/lossless"
	"scdc/internal/shard"
	"scdc/internal/verdict"
)

// flateStream wraps a raw DEFLATE body as a tag-1 lossless stream that
// declares n plaintext bytes.
func flateStream(body []byte, n int) []byte {
	return append(binary.AppendUvarint([]byte{byte(lossless.Flate)}, uint64(n)), body...)
}

// oracle decodes body into dst with compress/flate's reader and fails
// unless the body inflates to exactly len(dst) bytes and ends, within the
// expansion bound a tag-1 stream's header must respect.
func oracle(dst, body []byte) error {
	if len(dst) > 1032*len(body)+64 {
		return errors.New("impossible size")
	}
	got, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(body)), int64(len(dst))+1))
	if err != nil {
		return err
	}
	if len(got) != len(dst) {
		return errors.New("length mismatch")
	}
	copy(dst, got)
	return nil
}

// workloadPlaintexts are the lossless-stage plaintexts of the four
// repository-benchmark workloads, QP on and off.
var workloadPlaintexts = sync.OnceValues(func() ([]plaintext, error) {
	var out []plaintext
	for _, c := range bench.Workloads {
		qp, base, err := c.Plaintexts()
		if err != nil {
			return nil, err
		}
		out = append(out, plaintext{c.Name + "/qp", qp}, plaintext{c.Name + "/base", base})
	}
	return out, nil
})

type plaintext struct {
	name string
	data []byte
}

func deflate(tb testing.TB, src []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// goldenFlateBodies returns the flate body of every golden pin whose
// lossless stage wrote one: a tag-1 payload, or the flate shards of a
// tag-4 container.
func goldenFlateBodies(tb testing.TB) [][]byte {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.scdc"))
	if err != nil || len(names) == 0 {
		tb.Fatalf("golden pins: %v", err)
	}
	var bodies [][]byte
	for _, name := range names {
		stream, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		info, err := scdc.Inspect(stream)
		if err != nil || info.Chunked {
			continue
		}
		end := len(stream)
		if info.Integrity {
			end -= 4
		}
		p := stream[end-info.PayloadBytes : end]
		n, k := binary.Uvarint(p[1:])
		if k <= 0 {
			continue
		}
		switch lossless.Codec(p[0]) {
		case lossless.Flate:
			bodies = append(bodies, p[1+k:])
		case lossless.Sharded:
			dir, err := shard.ParseDir(p[1+k:], int(n), true, 1024)
			if err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
			for _, sh := range dir {
				if lossless.Codec(sh.Tag) == lossless.Flate {
					bodies = append(bodies, sh.Body)
				}
			}
		}
	}
	if len(bodies) < 40 {
		tb.Fatalf("only %d golden flate bodies", len(bodies))
	}
	return bodies
}

// flateLevels are the compress/flate levels the workload bodies are
// written at: Huffman-only, stored, fixed-leaning fast, default and best.
var flateLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

// seedPrefix is the longest plaintext prefix a fuzz seed is deflated
// from, and seedMin the shortest plaintext that gives one.
const seedPrefix, seedMin = 16 << 10, 1 << 10

// maxInflate caps what the differential check inflates.
const maxInflate = 1 << 22

// agreesWithFlate checks the in-package decoder against compress/flate on
// one body: at the length the body inflates to and one byte either side,
// both accept or both reject, and an accepted body decodes to the same
// bytes.
func agreesWithFlate(t *testing.T, body []byte) {
	t.Helper()
	full, _ := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(body)), maxInflate))
	for _, n := range []int{len(full), len(full) - 1, len(full) + 1} {
		if n < 0 {
			continue
		}
		want := make([]byte, n)
		werr := oracle(want, body)
		got, err := lossless.DecompressLimit(flateStream(body, n), maxInflate+1)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("n=%d: decoder %v, compress/flate %v", n, err, werr)
		case err != nil && (!errors.Is(err, verdict.ErrCorrupt) || !strings.Contains(err.Error(), "lossless: flate")):
			t.Fatalf("n=%d: error %v does not wrap ErrCorrupt under lossless: flate", n, err)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("n=%d: decoded bytes differ from compress/flate's", n)
		}
	}
}

// goldenSeeds returns the distinct golden flate bodies, and the first
// seedPrefix bytes of the plaintext of each that inflates to at least
// seedMin bytes.
func goldenSeeds(tb testing.TB) (bodies, prefixes [][]byte) {
	tb.Helper()
	seen := make(map[string]bool)
	for _, b := range goldenFlateBodies(tb) {
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		bodies = append(bodies, b)
		plain, err := io.ReadAll(flate.NewReader(bytes.NewReader(b)))
		if err != nil {
			tb.Fatal(err)
		}
		if len(plain) >= seedMin {
			prefixes = append(prefixes, plain[:min(len(plain), seedPrefix)])
		}
	}
	return bodies, prefixes
}

// FuzzInflate runs agreesWithFlate over arbitrary bodies. The seeds are
// every golden pin's flate body, and each of goldenSeeds' plaintext
// prefixes written again at every level of flateLevels; the workloads'
// whole plaintexts at every level are TestInflateWorkloads' cases. Seeding
// from the pins spares every fuzz process the synthesis and compression of
// the workload fields before its first exec.
//
// Its minimizations are capped (capMinimize).
func FuzzInflate(f *testing.F) {
	capMinimize(f)
	bodies, prefixes := goldenSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	for _, p := range prefixes {
		for _, level := range flateLevels {
			f.Add(deflate(f, p, level))
		}
	}
	f.Add(deflate(f, []byte("abcabcabcabcabcabcabc aaaaaaaaaaaaaaaaaaaaaa"), flate.BestSpeed))
	f.Add([]byte{0x03, 0x00})
	f.Fuzz(agreesWithFlate)
}

// capMinimize caps how long the fuzzer minimizes a new input. Minimizing
// tries O(n²) candidates on the ~1–16 KB seeds at ~0.1 ms each: seconds per
// input, in which its worker mutates nothing and the fuzzer reports 0
// execs/s. Unless the command line sets -fuzzminimizetime, a minimization
// stops after minimizeExecs candidates.
func capMinimize(f *testing.F) {
	explicit := false
	flag.Visit(func(fl *flag.Flag) { explicit = explicit || fl.Name == "test.fuzzminimizetime" })
	if !explicit {
		if err := flag.Set("test.fuzzminimizetime", minimizeExecs); err != nil {
			f.Fatal(err)
		}
	}
}

// minimizeExecs is the default -fuzzminimizetime of capMinimize.
const minimizeExecs = "1000x"

// TestInflateWorkloads runs agreesWithFlate over each workload's whole
// lossless-stage plaintext, QP on and off, at every level of flateLevels.
func TestInflateWorkloads(t *testing.T) {
	plains, err := workloadPlaintexts()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plains {
		for _, level := range flateLevels {
			t.Run(fmt.Sprintf("%s/level=%d", p.name, level), func(t *testing.T) {
				agreesWithFlate(t, deflate(t, p.data, level))
			})
		}
	}
}

// bitWriter builds DEFLATE bodies LSB first for the hostile-stream table.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes a Huffman code, most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) *bitWriter {
	return w.put(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical returns the canonical codes of lengths.
func canonical(lengths []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lengths))
	for s, l := range lengths {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// clSym is one symbol of a dynamic header's code-length sequence with
// its extra bits (a repeat count for 16–18).
type clSym struct {
	sym   int
	extra uint64
}

// dynamic writes a dynamic block header (BFINAL=1) with hlit+257
// literal/length and hdist+1 distance codes, whose code lengths are seq
// under a complete code-length code: 4-bit codes for 0–12 and 5-bit
// codes for 13–18.
func (w *bitWriter) dynamic(hlit, hdist int, seq []clSym) {
	var cl [19]uint8
	for s := range cl {
		cl[s] = 4
		if s >= 13 {
			cl[s] = 5
		}
	}
	w.put(1, 1).put(2, 2).put(uint64(hlit), 5).put(uint64(hdist), 5).put(15, 4)
	for _, s := range []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		w.put(uint64(cl[s]), 3)
	}
	codes := canonical(cl[:])
	for _, s := range seq {
		w.code(codes[s.sym], cl[s.sym])
		switch s.sym {
		case 16:
			w.put(s.extra, 2)
		case 17:
			w.put(s.extra, 3)
		case 18:
			w.put(s.extra, 7)
		}
	}
}

// lengths spells code lengths as a code-length sequence without repeats.
func lengths(lens ...uint8) []clSym {
	seq := make([]clSym, len(lens))
	for i, l := range lens {
		seq[i] = clSym{sym: int(l)}
	}
	return seq
}

// litDist returns 258 literal/length lengths with the given symbols set,
// followed by the distance lengths.
func litDist(lit map[int]uint8, dist ...uint8) []uint8 {
	lens := make([]uint8, 258, 258+len(dist))
	for s, l := range lit {
		lens[s] = l
	}
	return append(lens, dist...)
}

// TestInflateHostile feeds one hand-built body per rejection rule: each
// fails with an error that wraps verdict.ErrCorrupt, names
// "lossless: flate" and gives the rule, and compress/flate rejects it
// too. zlib's single one-bit distance code still decodes.
func TestInflateHostile(t *testing.T) {
	// Two one-bit literal/length codes ('a' and end of block) and a
	// distance code: a complete literal/length code.
	ok2 := map[int]uint8{'a': 1, 256: 1}
	fixed := func(final uint64) *bitWriter { return new(bitWriter).put(final, 1).put(1, 2) }
	fixedLit := func(w *bitWriter, c byte) *bitWriter { return w.code(0x30+uint16(c), 8) }
	fixedEnd := func(w *bitWriter) *bitWriter { return w.code(0, 7) }
	dyn := func(lens []uint8, tail func(*bitWriter)) []byte {
		w := new(bitWriter)
		w.dynamic(1, len(lens)-259, lengths(lens...))
		if tail != nil {
			tail(w)
		}
		return w.bytes()
	}
	cases := []struct {
		name string
		body []byte
		n    int
		want string
	}{
		{"over-subscribed literal/length code", dyn(litDist(map[int]uint8{'a': 1, 'b': 1, 256: 1}, 1), nil), 1,
			"invalid literal/length or distance code"},
		{"incomplete literal/length code", dyn(litDist(map[int]uint8{'a': 1, 256: 2}, 1), nil), 1,
			"invalid literal/length or distance code"},
		{"lone two-bit distance code", dyn(litDist(ok2, 2), nil), 1,
			"invalid literal/length or distance code"},
		{"incomplete one- and two-bit distance code", dyn(litDist(ok2, 1, 2), nil), 1,
			"invalid literal/length or distance code"},
		{"hlit 287", new(bitWriter).put(1, 1).put(2, 2).put(30, 5).put(0, 5).put(15, 4).put(0, 64).bytes(), 1,
			"too many length or distance codes"},
		{"hdist 31", new(bitWriter).put(1, 1).put(2, 2).put(0, 5).put(30, 5).put(15, 4).put(0, 64).bytes(), 1,
			"too many length or distance codes"},
		{"repeat code 16 first", func() []byte {
			w := new(bitWriter)
			w.dynamic(0, 0, []clSym{{16, 0}})
			return w.bytes()
		}(), 1, "repeat with no previous length"},
		{"repeat past hlit + hdist", func() []byte {
			w := new(bitWriter)
			w.dynamic(0, 0, []clSym{{18, 127}, {18, 127}})
			return w.bytes()
		}(), 1, "code lengths repeat past the last code"},
		{"distance before the output start", func() []byte {
			w := fixedLit(fixed(1), 'a')
			w.code(1, 7).code(1, 5) // length 3, distance 2
			return fixedEnd(w).bytes()
		}(), 4, "distance reaches before the output start"},
		{"length past n", func() []byte {
			w := fixedLit(fixed(1), 'a')
			w.code(1, 7).code(0, 5) // length 3, distance 1
			return fixedEnd(w).bytes()
		}(), 2, "stream runs past its declared length"},
		{"LEN/NLEN mismatch", []byte{0x01, 0x03, 0x00, 0x00, 0x00, 'a', 'b', 'c'}, 3,
			"stored block length does not match its complement"},
		{"block type 3", new(bitWriter).put(1, 1).put(3, 2).put(0, 13).bytes(), 1, "invalid block type"},
		{"body ends before its final block", []byte{0x00, 0x00, 0x00, 0xff, 0xff}, 0, "unexpected EOF"},
		{"final block short of n", fixedEnd(fixedLit(fixed(1), 'a')).bytes(), 2,
			"stream ends short of its declared length"},
		{"final block one byte past n", fixedEnd(fixedLit(fixedLit(fixed(1), 'a'), 'b')).bytes(), 1,
			"stream runs past its declared length"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if oracle(make([]byte, c.n), c.body) == nil {
				t.Fatal("compress/flate accepts the body")
			}
			_, err := lossless.Decompress(flateStream(c.body, c.n))
			if err == nil || !errors.Is(err, verdict.ErrCorrupt) ||
				!strings.Contains(err.Error(), "lossless: flate: "+c.want) {
				t.Fatalf("got %v, want ErrCorrupt with %q", err, "lossless: flate: "+c.want)
			}
		})
	}

	// One-bit codes for 'a' and a length-3 code, end of block two bits,
	// and one distance code of one bit: "a" then a 3-byte copy at
	// distance 1.
	w := new(bitWriter)
	lens := litDist(map[int]uint8{'a': 1, 256: 2, 257: 2}, 1)
	w.dynamic(1, 0, lengths(lens...))
	codes := canonical(lens[:258])
	w.code(codes['a'], 1).code(codes[257], 2).code(0, 1).code(codes[256], 2)
	body := w.bytes()
	if err := oracle(make([]byte, 4), body); err != nil {
		t.Fatalf("compress/flate rejects the single distance code: %v", err)
	}
	if got, err := lossless.Decompress(flateStream(body, 4)); err != nil || string(got) != "aaaa" {
		t.Fatalf("single distance code: %q, %v", got, err)
	}
}

// BenchmarkInflateWorkloads times inflating the lossless-stage
// plaintexts of the four benchmark workloads, QP on and off, as the
// default encoder writes them, with the in-package decoder (the product
// path, lossless.Decompress) and with compress/flate's reader.
func BenchmarkInflateWorkloads(b *testing.B) {
	plains, err := workloadPlaintexts()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range plains {
		stream, err := lossless.Compress(lossless.Flate, p.data)
		if err != nil {
			b.Fatal(err)
		}
		_, k := binary.Uvarint(stream[1:])
		body := stream[1+k:]
		b.Run(fmt.Sprintf("%s/decoder=inflate", p.name), func(b *testing.B) {
			b.SetBytes(int64(len(p.data)))
			for i := 0; i < b.N; i++ {
				if _, err := lossless.Decompress(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/decoder=stdlib", p.name), func(b *testing.B) {
			// One reader reset per call, as a pooled reader would be.
			var br bytes.Reader
			r := flate.NewReader(&br)
			b.SetBytes(int64(len(p.data)))
			for i := 0; i < b.N; i++ {
				br.Reset(body)
				if err := r.(flate.Resetter).Reset(&br, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(r, make([]byte, len(p.data))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
