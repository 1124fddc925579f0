package huffman

import (
	"bytes"
	"errors"
	"testing"

	"scdc/internal/verdict"
)

// FuzzHuffmanDecode: arbitrary bytes through both container layouts (the
// legacy single-body stream and the 0x00-marker sharded sub-format) must
// error or decode — never panic — and sequential and parallel decoding of
// the same bytes must agree exactly.
func FuzzHuffmanDecode(f *testing.F) {
	skewed := make([]int32, 20000)
	for i := range skewed {
		skewed[i] = int32(1 << 15)
		if i%7 == 0 {
			skewed[i] += int32(i % 13)
		}
		if i%97 == 0 {
			skewed[i] = 0 // unpredictable marker
		}
	}
	f.Add(Encode(skewed))
	f.Add(Encode(skewed[:1]))
	f.Add(Encode(nil))
	f.Add(EncodeSharded(skewed, 4, 2)) // 0x00 sharded sub-format
	f.Add(EncodeSharded(skewed, 2, 1))
	f.Add([]byte{0x00, 0x01})       // truncated sharded header
	f.Add([]byte{0x00, 0x02, 0x00}) // bad sharded version
	f.Add(overSubscribedStream())   // three 1-bit codes
	// A long short-code stream, so the multi-symbol kernel runs.
	f.Add(Encode(geometricStream(minMultiSymbols, 0.25, 1)))
	// Codes of 1 to 20 bits, the long ones decoded through the
	// second-level tables: symbol i occurs Fibonacci(i) times.
	var fib []int32
	for i, a, b := int32(0), 1, 1; i <= 20; i, a, b = i+1, b, a+b {
		for k := 0; k < a; k++ {
			fib = append(fib, i)
		}
	}
	f.Add(Encode(fib))
	// Codes of up to 24 bits, past the second-level tables' reach.
	f.Add(codedStream(append(ascending(24), 24), []int32{0, 24, 3, 23, 20, 1, 24, 22, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := Decode(data)
		par, perr := DecodeParallel(data, -1, 4)
		if (err == nil) != (perr == nil) {
			t.Fatalf("sequential err=%v, parallel err=%v", err, perr)
		}
		if err != nil {
			if !errors.Is(err, verdict.ErrCorrupt) || !errors.Is(perr, verdict.ErrCorrupt) {
				t.Fatalf("decode errors are not verdict.ErrCorrupt: %v / %v", err, perr)
			}
			return
		}
		if len(seq) != len(par) {
			t.Fatalf("decode lengths differ: %d vs %d", len(seq), len(par))
		}
		// A caller expecting another count is refused.
		if _, err := DecodeParallel(data, len(seq)+1, 4); !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("%d symbols accepted as %d: %v", len(seq), len(seq)+1, err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("decode differs at %d: %d vs %d", i, seq[i], par[i])
			}
		}
		// Whatever decoded must survive a re-encode round trip.
		re, err := Decode(Encode(seq))
		if err != nil {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
		if len(re) != len(seq) {
			t.Fatalf("re-encode length %d, want %d", len(re), len(seq))
		}
	})
}

// FuzzHuffmanRoundTrip drives the encoder with arbitrary symbol streams
// (derived from raw bytes) across shard counts; every stream must decode
// back to itself under both decoders.
func FuzzHuffmanRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 250}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 100), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, shardByte uint8) {
		syms := make([]int32, len(raw))
		for i, b := range raw {
			// Mix wide and narrow ranges so both the dense-array and map
			// code paths are exercised.
			syms[i] = int32(b)
			if b%3 == 0 {
				syms[i] = int32(b)*65536 - 1<<20
			}
		}
		shards := int(shardByte % 8)
		enc := EncodeSharded(syms, shards, 2)
		for _, workers := range []int{1, 4} {
			dec, err := DecodeParallel(enc, len(syms), workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if len(dec) != len(syms) {
				t.Fatalf("length %d, want %d", len(dec), len(syms))
			}
			for i := range syms {
				if dec[i] != syms[i] {
					t.Fatalf("symbol %d: %d, want %d", i, dec[i], syms[i])
				}
			}
		}
	})
}
