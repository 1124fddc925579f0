package lossless

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"scdc/internal/verdict"
)

var codecs = []Codec{None, Flate, LZ, Huffman}

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
	// The LZ-family codecs must exploit the repetition.
	for _, c := range []Codec{Flate, LZ} {
		enc, _ := Compress(c, src)
		if len(enc) >= len(src)/4 {
			t.Errorf("%v: poor compression of repetitive data: %d of %d", c, len(enc), len(src))
		}
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

func TestOverlappingMatches(t *testing.T) {
	// RLE-style data exercises overlapping LZ copies.
	src := append(bytes.Repeat([]byte{0x5a}, 4000), bytes.Repeat([]byte{1, 2}, 2000)...)
	roundTrip(t, LZ, src)
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

// TestQuickLZ property: the from-scratch LZ codec round-trips arbitrary
// byte strings.
func TestQuickLZ(t *testing.T) {
	f := func(src []byte) bool {
		enc, err := Compress(LZ, src)
		if err != nil {
			return false
		}
		dec, err := Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
