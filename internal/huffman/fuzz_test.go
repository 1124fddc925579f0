package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"scdc/internal/verdict"
)

// FuzzHuffmanDecode: arbitrary bytes through every container layout (the
// legacy single-body stream and the 0x00-marker sharded and run-coded
// sub-formats) must error or decode — never panic — and decoding with the
// decoded count must give the same symbols.
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
	f.Add(encode(skewed))
	f.Add(encode(skewed[:1]))
	f.Add(encode(nil))
	f.Add(encodeSharded(skewed, 4)) // 0x00 sharded sub-format
	f.Add(encodeSharded(skewed, 2))
	f.Add([]byte{0x00, 0x01})       // truncated sharded header
	f.Add([]byte{0x00, 0x02, 0x00}) // bad sharded version
	f.Add(overSubscribedStream())   // three 1-bit codes
	// A long short-code stream, so the multi-symbol kernel runs.
	f.Add(encode(geometricStream(minMultiSymbols, 0.25, 1)))
	// Codes of 1 to 20 bits, the long ones decoded through the
	// second-level tables: symbol i occurs Fibonacci(i) times.
	var fib []int32
	for i, a, b := int32(0), 1, 1; i <= 20; i, a, b = i+1, b, a+b {
		for k := 0; k < a; k++ {
			fib = append(fib, i)
		}
	}
	f.Add(encode(fib))
	// Codes of up to 24 bits, past the second-level tables' reach.
	f.Add(codedStream(append(ascending(24), 24), []int32{0, 24, 3, 23, 20, 1, 24, 22, 0}))
	// Run-coded streams (0x00 0x03): a short one, expanded in place, and
	// one long enough for the run table's kernel.
	f.Add(encode(modalStream(5000, 0.9, 1)))
	f.Add(encode(modalStream(1<<18, 0.8, 2)))
	// A lie per index layout that only the shared checks of the one block
	// reader turn away: a plain block of 100 samples under an empty table,
	// a sharded one that declares no samples, and a run-coded one whose
	// RUNB digit (6+1) is its modal symbol 7.
	f.Add(tableStream(100, nil, make([]byte, 13)))
	f.Add(append([]byte{shardedMarker, shardedVersion}, tableStream(0, []int{1, 1}, append([]byte{1, 100, 13}, make([]byte, 13)...))...))
	rc := binary.AppendVarint(binary.AppendVarint([]byte{100, 10}, 7), 6)
	rc = binary.AppendVarint(append(rc, 2), 6)
	rc = append(rc, 1, 2, 1) // 6 and 7, one-bit codes
	f.Add(append(append([]byte{shardedMarker, runVersion, byte(len(rc))}, rc...), 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := Decode(data)
		if err != nil {
			if !errors.Is(err, verdict.ErrCorrupt) {
				t.Fatalf("decode error is not verdict.ErrCorrupt: %v", err)
			}
			return
		}
		// A caller expecting the decoded count gets the same symbols; one
		// expecting another count is refused.
		counted, err := DecodeN(data, len(seq))
		if err != nil || len(counted) != len(seq) {
			t.Fatalf("%d symbols: counted decode gave %d (%v)", len(seq), len(counted), err)
		}
		if _, err := DecodeN(data, len(seq)+1); !errors.Is(err, verdict.ErrCorrupt) {
			t.Fatalf("%d symbols accepted as %d: %v", len(seq), len(seq)+1, err)
		}
		for i := range seq {
			if seq[i] != counted[i] {
				t.Fatalf("decode differs at %d: %d vs %d", i, seq[i], counted[i])
			}
		}
		// Whatever decoded must survive a re-encode round trip.
		re, err := Decode(encode(seq))
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
	// Mostly one symbol: the run-coded layout.
	f.Add(append(bytes.Repeat([]byte{7}, 400), 8, 7, 7, 7, 200, 7, 8), uint8(1))
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
		enc := encodeSharded(syms, shards)
		dec, err := DecodeN(enc, len(syms))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(dec) != len(syms) {
			t.Fatalf("length %d, want %d", len(dec), len(syms))
		}
		for i := range syms {
			if dec[i] != syms[i] {
				t.Fatalf("symbol %d: %d, want %d", i, dec[i], syms[i])
			}
		}
	})
}
