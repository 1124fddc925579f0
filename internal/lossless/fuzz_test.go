package lossless

import (
	"bytes"
	"errors"
	"testing"

	"scdc/internal/verdict"
)

// FuzzLosslessDecompress covers the codec-tagged wrapper over the
// single-body back-ends, including hostile declared lengths against
// DecompressLimit.
func FuzzLosslessDecompress(f *testing.F) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	for _, c := range codecs {
		enc, err := Compress(c, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{byte(LZ), 0xff, 0xff, 0xff, 0xff, 0x0f})
	// The decode-only LZ codec: its hand-built sequences and the tag-2
	// golden payload; and the decode-only Huffman codec's tag-7 golden
	// payload.
	for _, v := range lzVectors() {
		f.Add(lzStream(v.body, len(v.want)))
	}
	f.Add(goldenPayload(f, "sz3_3d_qpon_lossless_lz.scdc"))
	f.Add(goldenPayload(f, "sz3_3d_qpon_lossless_huffman.scdc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressLimit(data, 1<<22)
		if err != nil {
			if !errors.Is(err, verdict.ErrCorrupt) {
				t.Fatalf("decode error %v is not verdict.ErrCorrupt", err)
			}
			return
		}
		if len(out) > 1<<22 {
			t.Fatalf("limit breached: %d bytes", len(out))
		}
		// Decoded output must re-compress and round-trip under every codec.
		for _, c := range codecs {
			enc, err := Compress(c, out)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			dec, err := Decompress(enc)
			if err != nil || !bytes.Equal(dec, out) {
				t.Fatalf("%v round trip: %v", c, err)
			}
		}
	})
}
