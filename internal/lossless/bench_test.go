package lossless

import (
	"fmt"
	"testing"
)

// benchPayload synthesizes a buffer that mimics the entropy-stage output
// the lossless back-end really sees: mostly low-byte symbol noise with
// embedded repeated motifs (table headers, run regions), deterministic
// so every run and every machine benches the same bytes.
func benchPayload(n int) []byte {
	out := make([]byte, n)
	state := uint64(0x9e3779b97f4a7c15)
	motif := []byte("\x00\x01\x00\x02\x01\x00\x03\x00\x00\x01\x02\x00")
	for i := 0; i < n; {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		if r%5 == 0 {
			k := copy(out[i:], motif)
			i += k
			continue
		}
		out[i] = byte(r % 37)
		i++
	}
	return out
}

// BenchmarkLosslessCodecs prices the codecs side by side: one compress and
// one decompress series per back-end, the sharded Auto container at 4
// workers.
func BenchmarkLosslessCodecs(b *testing.B) {
	src := benchPayload(1 << 20)
	const workers = 4

	type variant struct {
		name    string
		enc     func() ([]byte, error)
		workers int
	}
	variants := []variant{
		{"flate", func() ([]byte, error) { return Compress(Flate, src) }, 1},
		{"huffman", func() ([]byte, error) { return Compress(Huffman, src) }, 1},
		{"sharded-auto", func() ([]byte, error) { return CompressSharded(Auto, src, workers) }, workers},
	}

	for _, v := range variants {
		enc, err := v.enc()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("compress/codec=%s", v.name), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := v.enc(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(src))/float64(len(enc)), "ratio")
		})
		b.Run(fmt.Sprintf("decompress/codec=%s", v.name), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, err := DecompressLimit(enc, len(src), v.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != len(src) {
					b.Fatal("length mismatch")
				}
			}
		})
	}
}
