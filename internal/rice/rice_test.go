package rice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"scdc/internal/bitstream"
	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

// encode is EncodeDist over a fresh histogram of q.
func encode(q []int32) []byte { return EncodeDist(q, entropy.Analyze(q)) }

func roundTrip(t *testing.T, name string, q []int32) []byte {
	t.Helper()
	enc := encode(q)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(dec) != len(q) {
		t.Fatalf("%s: decoded %d symbols, want %d", name, len(dec), len(q))
	}
	for i := range q {
		if dec[i] != q[i] {
			t.Fatalf("%s: symbol %d: got %d, want %d", name, i, dec[i], q[i])
		}
	}
	return enc
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	constant := make([]int32, 5000)
	for i := range constant {
		constant[i] = 32768
	}

	nearConstant := make([]int32, 5000)
	for i := range nearConstant {
		nearConstant[i] = 100
		if i%37 == 0 {
			nearConstant[i] = 100 + int32(i%5) - 2
		}
	}

	geometric := make([]int32, 5000)
	for i := range geometric {
		d := int32(rng.ExpFloat64() * 20)
		if rng.Intn(2) == 0 {
			d = -d
		}
		geometric[i] = 1000 + d
	}

	wide := make([]int32, 3000)
	for i := range wide {
		wide[i] = rng.Int31() - 1<<30 // forces escapes
	}

	extremes := []int32{-1 << 31, 1<<31 - 1, 0, -1, 1, -1 << 31, 1<<31 - 1}

	cases := map[string][]int32{
		"empty":        {},
		"single":       {-7},
		"constant":     constant,
		"nearConstant": nearConstant,
		"geometric":    geometric,
		"wide":         wide,
		"extremes":     extremes,
		"partialBlock": geometric[:257],
		"oneBlock":     geometric[:256],
	}
	for name, q := range cases {
		roundTrip(t, name, q)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	q := make([]int32, 10000)
	rng := rand.New(rand.NewSource(7))
	for i := range q {
		q[i] = int32(rng.Intn(9)) - 4
	}
	if string(encode(q)) != string(encode(q)) {
		t.Fatal("EncodeDist is not deterministic")
	}
}

// TestGoldenStream pins the byte format: a fixed input must encode to a
// fixed digest, so format drift cannot slip through as a matched pair of
// encoder/decoder changes.
func TestGoldenStream(t *testing.T) {
	q := make([]int32, 2048)
	for i := range q {
		switch {
		case i%5 == 0:
			q[i] = 17 + int32(i%3)
		case i%31 == 0:
			q[i] = -40000 // occasional escape
		default:
			q[i] = 17
		}
	}
	enc := encode(q)
	const want = "88f631c4727b21fab866861d82ddc03dce1c4345a97dcba863af28a56744b397"
	got := hex.EncodeToString(func() []byte { s := sha256.Sum256(enc); return s[:] }())
	if got != want {
		t.Fatalf("golden rice stream drifted:\n got %s\nwant %s\n(len=%d)", got, want, len(enc))
	}
	roundTrip(t, "golden", q)
}

func TestIsRice(t *testing.T) {
	if !IsRice(encode([]int32{1, 2, 3})) {
		t.Fatal("encoded stream not recognized")
	}
	for _, bad := range [][]byte{nil, {0x00}, {0x00, 0x01}, {0x01, 0x02}, {0x05}} {
		if IsRice(bad) {
			t.Fatalf("IsRice(%x) = true", bad)
		}
	}
}

// hostileStream builds a syntactically valid prefix (marker, version, n,
// center) followed by a hand-authored bit body.
func hostileStream(n uint64, center int64, bits func(w *bitstream.Writer)) []byte {
	out := []byte{Marker, Version}
	out = binary.AppendUvarint(out, n)
	out = binary.AppendVarint(out, center)
	w := bitstream.NewWriter(16)
	bits(w)
	return append(out, w.Bytes()...)
}

func TestHostileStreams(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"markerOnly":       {Marker},
		"truncatedCount":   {Marker, Version},
		"danglingUvarint":  {Marker, Version, 0x80},
		"truncatedCenter":  {Marker, Version, 0x04},
		"danglingCenter":   {Marker, Version, 0x04, 0x80},
		"hugeCenter":       append(binary.AppendVarint([]byte{Marker, Version, 0x04}, 1<<40), 0xFF),
		"countExceedsBody": append(binary.AppendUvarint([]byte{Marker, Version}, 1<<40), 0x00),
		// A full first block (mode 1, k=0, 256 one-bit codes) fills the
		// body to an exact byte boundary, so the second block's mode bits
		// land past the end rather than in zero padding.
		"truncatedMode": hostileStream(512, 0, func(w *bitstream.Writer) {
			w.WriteBits(1, 2)
			w.WriteBits(0, 6)
			for i := 0; i < 256; i++ {
				w.WriteBit(0)
			}
		}),
		"invalidMode": hostileStream(4, 0, func(w *bitstream.Writer) {
			w.WriteBits(3, 2)
		}),
		"oversizedK": hostileStream(4, 0, func(w *bitstream.Writer) {
			w.WriteBits(1, 2)
			w.WriteBits(63, 6) // k > 31
		}),
		"oversizedKRunMode": hostileStream(4, 0, func(w *bitstream.Writer) {
			w.WriteBits(2, 2)
			w.WriteBits(32, 6)
		}),
		"lyingRunLength": hostileStream(10, 0, func(w *bitstream.Writer) {
			w.WriteBits(2, 2)
			w.WriteBits(0, 6)
			// gamma(301): run of 300 into a 10-symbol block.
			w.WriteBits(301, 2*8+1)
		}),
		"oversizedRunCode": hostileStream(10, 0, func(w *bitstream.Writer) {
			w.WriteBits(2, 2)
			w.WriteBits(0, 6)
			w.WriteBits(1, 2*9+1) // 9 leading zeros: value 512 > 257
		}),
		"truncatedQuotient": hostileStream(256, 0, func(w *bitstream.Writer) {
			w.WriteBits(1, 2)
			w.WriteBits(0, 6)
			w.WriteBits(0xFF, 8) // unary runs off the end of the body
		}),
		"truncatedEscape": hostileStream(4, 0, func(w *bitstream.Writer) {
			w.WriteBits(1, 2)
			w.WriteBits(0, 6)
			w.WriteBits(1<<escapeQuot-1, escapeQuot) // escape, no literal
		}),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestHostileCountRejectedBeforeAlloc: an absurd symbol count over a tiny
// body must be rejected by the pre-allocation cap (alloccap discipline),
// i.e. fail fast rather than attempt the allocation.
func TestHostileCountRejectedBeforeAlloc(t *testing.T) {
	data := binary.AppendUvarint([]byte{Marker, Version}, 1<<50)
	data = binary.AppendVarint(data, 0)
	data = append(data, 0xAA, 0xBB) // 2-byte body, cap allows 2048 symbols
	if _, err := Decode(data); !errors.Is(err, verdict.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func FuzzRice(f *testing.F) {
	near := make([]int32, 3000)
	for i := range near {
		near[i] = 5
		if i%11 == 0 {
			near[i] = int32(i % 7)
		}
	}
	f.Add(encode(near), []byte{1, 2, 3})
	f.Add(encode(nil), []byte{})
	f.Add([]byte{Marker, Version, 0x04}, []byte{0xFF, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, stream, raw []byte) {
		// Arbitrary bytes through Decode must decode or fail with
		// verdict.ErrCorrupt, never panic.
		if syms, err := Decode(stream); err == nil {
			if _, err := Decode(encode(syms)); err != nil {
				t.Fatalf("re-encode of decoded stream failed: %v", err)
			}
		} else if !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("decode error %v is not verdict.ErrCorrupt", err)
		}
		// Arbitrary symbol streams must round-trip exactly.
		q := make([]int32, len(raw))
		for i, b := range raw {
			q[i] = int32(b)
			if b%5 == 0 {
				q[i] = int32(b)*131071 - 1<<24
			}
		}
		enc := encode(q)
		dec, err := DecodeN(enc, len(q))
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		// A caller expecting another count is refused.
		if _, err := DecodeN(enc, len(q)+1); !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("%d symbols accepted as %d: %v", len(q), len(q)+1, err)
		}
		if len(dec) != len(q) {
			t.Fatalf("round trip length %d, want %d", len(dec), len(q))
		}
		for i := range q {
			if dec[i] != q[i] {
				t.Fatalf("round trip symbol %d: %d, want %d", i, dec[i], q[i])
			}
		}
	})
}
