package lossless

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"scdc/internal/verdict"
)

// codecs are the concrete codecs Compress writes. LZ is decode-only; its
// decoder is held to the hand-built sequences of lzVectors instead.
var codecs = []Codec{None, Flate, Huffman}

func roundTrip(t *testing.T, c Codec, src []byte) {
	t.Helper()
	enc, err := Compress(c, src)
	if err != nil {
		t.Fatalf("%v compress: %v", c, err)
	}
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("%v decompress: %v", c, err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("%v round trip mismatch (%d vs %d bytes)", c, len(dec), len(src))
	}
}

func TestEmpty(t *testing.T) {
	for _, c := range codecs {
		roundTrip(t, c, nil)
		roundTrip(t, c, []byte{})
	}
}

func TestSmall(t *testing.T) {
	for _, c := range codecs {
		roundTrip(t, c, []byte{1})
		roundTrip(t, c, []byte{1, 2, 3})
	}
}

func TestRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcabcabc___"), 500)
	for _, c := range codecs {
		roundTrip(t, c, src)
	}
	// Flate's match coder must exploit the repetition.
	if enc, _ := Compress(Flate, src); len(enc) >= len(src)/4 {
		t.Errorf("flate: poor compression of repetitive data: %d of %d", len(enc), len(src))
	}
}

func TestRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 8192)
	rng.Read(src)
	for _, c := range codecs {
		roundTrip(t, c, src)
	}
}

// TestOverlappingMatches: RLE-style lz/2 sequences, whose matches overlap
// their own output at offsets 1 and 2, decode through both doors.
func TestOverlappingMatches(t *testing.T) {
	want := append(bytes.Repeat([]byte{0x5a}, 4000), bytes.Repeat([]byte{1, 2}, 2000)...)
	body := lzSeq(nil, []byte{0x5a}, 3999, 1)
	body = lzSeq(body, []byte{1, 2}, 3998, 2)
	body = lzSeq(body, nil, 0, 0)
	lzDecodes(t, body, want)
}

func TestLongStream(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := make([]byte, 1<<18)
	// Mixed compressibility: runs plus noise.
	for i := 0; i < len(src); i += 256 {
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			for j := i; j < i+256; j++ {
				src[j] = b
			}
		} else {
			rng.Read(src[i : i+256])
		}
	}
	for _, c := range codecs {
		roundTrip(t, c, src)
	}
}

func TestCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("hello world "), 100)
	for _, c := range codecs {
		enc, _ := Compress(c, src)
		if _, err := Decompress(enc[:len(enc)/3]); err == nil && c != None {
			t.Errorf("%v: truncated stream accepted", c)
		}
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("empty stream accepted")
	}
	// Tag 3 is reserved (the retired range coder) and reads as unknown;
	// neither it nor any undefined tag can be written.
	for _, tag := range []byte{3, 99} {
		if _, err := Decompress([]byte{tag, 4, 1, 2, 3, 4}); !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("codec tag %d: got %v, want ErrCorrupt", tag, err)
		}
		if _, err := Compress(Codec(tag), src); err == nil {
			t.Errorf("codec tag %d accepted by Compress", tag)
		}
	}
	// Stored-length mismatch for None.
	enc, _ := Compress(None, src)
	if _, err := Decompress(enc[:len(enc)-3]); err == nil {
		t.Error("short stored stream accepted")
	}
}

func TestCodecString(t *testing.T) {
	if None.String() != "none" || Flate.String() != "flate" || LZ.String() != "lz" {
		t.Error("codec names wrong")
	}
	if Sharded.String() != "sharded" || Auto.String() != "auto" || Store.String() != "store" || Huffman.String() != "huffman" {
		t.Error("codec names wrong")
	}
	if Codec(77).String() == "" {
		t.Error("unknown codec has empty name")
	}
}

// lzSeq appends one lz/2 sequence (lz.go) to dst: the token, the
// 255-run extensions of a length nibble of 15, the literals and, when
// mlen > 0, the 2-byte offset. mlen == 0 writes a literal-only sequence,
// the form that ends every stream.
func lzSeq(dst, lit []byte, mlen, off int) []byte {
	ext := func(dst []byte, v int) []byte {
		for ; v >= 255; v -= 255 {
			dst = append(dst, 255)
		}
		return append(dst, byte(v))
	}
	litNib, mNib := min(len(lit), lzNibbleExt), 0
	if mlen > 0 {
		mNib = min(mlen-lzMinMatch, lzNibbleExt)
	}
	dst = append(dst, byte(litNib<<4|mNib))
	if litNib == lzNibbleExt {
		dst = ext(dst, len(lit)-lzNibbleExt)
	}
	dst = append(dst, lit...)
	if mlen > 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(off))
		if mNib == lzNibbleExt {
			dst = ext(dst, mlen-lzMinMatch-lzNibbleExt)
		}
	}
	return dst
}

// lzStream wraps an lz/2 body in the tag-2 stream header declaring n
// plaintext bytes.
func lzStream(body []byte, n int) []byte {
	return append(binary.AppendUvarint([]byte{byte(LZ)}, uint64(n)), body...)
}

// lzDecodes requires an lz/2 body to decode to want as a whole tag-2
// stream and, unless want is empty (the container has no empty shards),
// as the one shard of a tag-4 container.
func lzDecodes(t *testing.T, body, want []byte) {
	t.Helper()
	streams := map[string][]byte{"tag 2": lzStream(body, len(want))}
	if len(want) > 0 {
		streams["tag 4"] = shardedStream(len(want), [][3]uint64{{uint64(LZ), uint64(len(want)), uint64(len(body))}}, body)
	}
	for door, stream := range streams {
		got, err := DecompressLimit(stream, len(want), 2)
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: decoded %d bytes, not the %d expected", door, len(got), len(want))
		}
	}
}

// lzVector is a hand-built lz/2 body and what it decodes to.
type lzVector struct {
	name       string
	body, want []byte
}

// lzVectors covers every token form the format has, at the edges of its
// fields.
func lzVectors() []lzVector {
	rng := rand.New(rand.NewSource(5))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	v := []lzVector{
		// Token 0x11: one literal, then a match of 5 at offset 1 that
		// copies its own output; the final token has no literals.
		{"overlap at offset 1", []byte{0x11, 'a', 1, 0, 0x00}, []byte("aaaaaa")},
		{"empty", []byte{0x00}, nil},
		{"literal-only final", lzSeq(nil, []byte("hello"), 0, 0), []byte("hello")},
	}
	for _, n := range []int{14, 15, 16, 15 + 254, 15 + 255, 15 + 255 + 255 + 3} {
		lit := noise(n)
		v = append(v, lzVector{fmt.Sprintf("literal run %d", n), lzSeq(nil, lit, 0, 0), lit})
	}
	for _, m := range []int{lzMinMatch, 18, 19, 20, 19 + 254, 19 + 255, 19 + 600} {
		lit := noise(lzMinMatch)
		want := append(slices.Clone(lit), bytes.Repeat(lit, (m+lzMinMatch-1)/lzMinMatch)[:m]...)
		body := lzSeq(nil, lit, m, lzMinMatch)
		v = append(v, lzVector{fmt.Sprintf("match %d", m), lzSeq(body, nil, 0, 0), want})
	}
	// The largest offset the 2-byte field holds, reaching back to the
	// first byte of a 65535-byte literal run; the stream then ends on a
	// literal run of its own.
	lit, tail := noise(65535), noise(7)
	body := lzSeq(nil, lit, 100, 65535)
	return append(v, lzVector{"offset 65535", lzSeq(body, tail, 0, 0), slices.Concat(lit, lit[:100], tail)})
}

// TestLZDecodeVectors: the decode-only LZ codec reads every token form —
// an overlapping match, 15-nibble literal and match extensions, offset
// 65535, a literal-only final sequence — as a tag-2 stream and as a
// shard of the tag-4 container.
func TestLZDecodeVectors(t *testing.T) {
	for _, v := range lzVectors() {
		t.Run(v.name, func(t *testing.T) { lzDecodes(t, v.body, v.want) })
	}
}

// TestQuickLZ property: an arbitrary literal run followed by a match at
// an arbitrary in-range offset — overlapping its own output whenever the
// match is longer than the offset — decodes to what a byte-at-a-time
// copy produces.
func TestQuickLZ(t *testing.T) {
	f := func(lit []byte, m uint16, off uint16) bool {
		want := slices.Clone(lit)
		body := lzSeq(nil, lit, 0, 0)
		if len(lit) > 0 {
			mlen, o := lzMinMatch+int(m%2048), 1+int(off)%len(lit)
			for j := 0; j < mlen; j++ {
				want = append(want, want[len(want)-o])
			}
			body = lzSeq(lzSeq(nil, lit, mlen, o), nil, 0, 0)
		}
		got, err := Decompress(lzStream(body, len(want)))
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLZHostile: every structural lie in an lz/2 body is ErrCorrupt, as a
// tag-2 stream and as a container shard.
func TestLZHostile(t *testing.T) {
	cases := map[string]struct {
		body []byte
		n    int
	}{
		"truncated token":        {nil, 4},
		"bad literal extension":  {[]byte{0xf0, 255, 255}, 600},
		"literal run past body":  {[]byte{0x40, 1, 2}, 4},
		"literal run past n":     {[]byte{0x40, 1, 2, 3, 4}, 3},
		"trailing bytes":         {[]byte{0x20, 1, 2, 9}, 2},
		"truncated offset":       {[]byte{0x10, 1, 1}, 8},
		"offset 0":               {[]byte{0x10, 1, 0, 0, 0x00}, 5},
		"offset past output":     {[]byte{0x10, 1, 2, 0, 0x00}, 5},
		"bad match extension":    {[]byte{0x1f, 1, 1, 0, 255}, 600},
		"match past n":           {[]byte{0x10, 1, 1, 0, 0x00}, 4},
		"declared size too big":  {[]byte{0x10, 1, 1, 0, 0x00}, 255*5 + 16},
		"missing final sequence": {[]byte{0x10, 1, 1, 0}, 5},
	}
	for name, c := range cases {
		streams := map[string][]byte{
			"tag 2": lzStream(c.body, c.n),
			"tag 4": shardedStream(c.n, [][3]uint64{{uint64(LZ), uint64(c.n), uint64(len(c.body))}}, c.body),
		}
		for door, stream := range streams {
			if _, err := DecompressLimit(stream, 1<<20, 1); !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", name, door, err)
			}
		}
	}
}

// TestLZDecodeOnly: no entry point writes LZ any more, and the tag-2
// golden payload earlier releases wrote still decodes.
func TestLZDecodeOnly(t *testing.T) {
	src := bytes.Repeat([]byte("lz"), 1<<16)
	if _, err := Compress(LZ, src); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("Compress(LZ): got %v, want ErrBadOptions", err)
	}
	if _, err := CompressSharded(LZ, src, 2); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("CompressSharded(LZ): got %v, want ErrBadOptions", err)
	}
	p := goldenPayload(t, "sz3_3d_qpon_lossless_lz.scdc")
	if Codec(p[0]) != LZ {
		t.Fatalf("golden payload has tag %d, want %d", p[0], LZ)
	}
	if _, err := Decompress(p); err != nil {
		t.Fatal(err)
	}
}

// goldenPayload returns the lossless payload of a committed golden
// stream: what lies between the container prologue (magic, version,
// kind, ndims, uvarint dims) and the 4-byte CRC32C footer.
func goldenPayload(tb testing.TB, file string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		tb.Fatal(err)
	}
	p := b[7 : len(b)-4]
	for range int(b[6]) {
		_, k := binary.Uvarint(p)
		p = p[k:]
	}
	return p
}
