package lossless

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"scdc/internal/verdict"
)

// randomPayload mixes skewed runs (entropy-coder friendly) with uniform
// noise (worst case) at an arbitrary, often odd, length.
func randomPayload(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		if rng.Intn(2) == 0 {
			run := 1 + rng.Intn(17)
			b := byte(rng.Intn(4))
			for ; run > 0 && i < n; run-- {
				out[i] = b
				i++
			}
		} else {
			out[i] = byte(rng.Intn(256))
			i++
		}
	}
	return out
}

// TestPropertyCodecRoundTrip runs the same length sweep through the
// tagged Compress/Decompress wrapper for every codec.
func TestPropertyCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []Codec{None, Flate, Store} {
		for _, n := range []int{0, 1, 3, 64, 65, 1000, 4097} {
			payload := randomPayload(rng, n)
			enc, err := Compress(c, payload)
			if err != nil {
				t.Fatalf("%v n=%d: %v", c, n, err)
			}
			dec, err := Decompress(enc)
			if err != nil {
				t.Fatalf("%v n=%d: %v", c, n, err)
			}
			if !bytes.Equal(dec, payload) {
				t.Fatalf("%v n=%d: round trip mismatch", c, n)
			}
		}
	}
}

// TestDecompressLimit: a declared size over the caller's limit must be
// rejected as corrupt before any allocation; at or under it must decode.
func TestDecompressLimit(t *testing.T) {
	payload := bytes.Repeat([]byte("scdc"), 300)
	for _, c := range []Codec{None, Flate, LZ, Huffman, Sharded} {
		var enc []byte
		var err error
		switch c {
		case LZ:
			enc = lzStream(lzSeq(nil, payload, 0, 0), len(payload))
		case Huffman:
			enc = goldenPayload(t, "sz3_3d_qpon_lossless_huffman.scdc")
		case Sharded:
			enc = shardedContainer(payload, 2)
		default:
			enc, err = Compress(c, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		n, _ := binary.Uvarint(enc[1:])
		if _, err := DecompressLimit(enc, int(n)); err != nil {
			t.Errorf("%v: limit == size rejected: %v", c, err)
		}
		_, err = DecompressLimit(enc, int(n)-1)
		if !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%v: limit-1 gave %v, want ErrCorrupt", c, err)
		}
	}
	if _, err := DecompressLimit(nil, 10); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestPayloadLimit pins the geometric slack formula and its overflow
// guard, which every decoder trusts to cap hostile length headers.
func TestPayloadLimit(t *testing.T) {
	if got := PayloadLimit(0); got != 65536 {
		t.Errorf("PayloadLimit(0) = %d", got)
	}
	if got := PayloadLimit(1000); got != 256*1000+65536 {
		t.Errorf("PayloadLimit(1000) = %d", got)
	}
	maxInt := int(^uint(0) >> 1)
	if got := PayloadLimit(maxInt); got != maxInt {
		t.Errorf("PayloadLimit(maxInt) = %d, want maxInt (no overflow)", got)
	}
	if got := PayloadLimit(maxInt / 2); got != maxInt {
		t.Errorf("PayloadLimit(maxInt/2) = %d, want maxInt", got)
	}
}
