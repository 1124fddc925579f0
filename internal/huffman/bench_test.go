package huffman

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"scdc/internal/entropy"
)

// geometricStream draws n quantization-index-like symbols: a centre value
// plus a two-sided geometric offset that continues with probability r at
// each step, so r sets the bits per symbol the stream codes to. Seeded,
// so every run decodes the same bytes.
func geometricStream(n int, r float64, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]int32, n)
	for i := range q {
		v := int32(0)
		for rng.Float64() < r {
			v++
		}
		if v != 0 && rng.Intn(2) == 0 {
			v = -v
		}
		q[i] = 1<<15 + v
	}
	return q
}

// plainStream is q in the plain single-body layout, which splitStream
// parses, whichever layout EncodeDist picks for it.
func plainStream(q []int32) []byte { return EncodePlain(q, entropy.Analyze(q)) }

// splitStream parses a single-body stream into its code table, declared
// symbol count and body.
func splitStream(tb testing.TB, enc []byte) (syms []int32, lengths []uint8, n int, body []byte) {
	tb.Helper()
	hdrLen, c := binary.Uvarint(enc)
	hdr, body := enc[c:c+int(hdrLen)], enc[c+int(hdrLen):]
	nsamp, k := binary.Uvarint(hdr)
	syms, lengths, err := parseTableHeader(hdr[k:])
	if err != nil {
		tb.Fatal(err)
	}
	return syms, lengths, int(nsamp), body
}

// decodeProfiles are the synthetic streams BenchmarkDecodeBody decodes:
// ~1 and ~1.5 bits/symbol (SZ3/QoZ index streams with QP), ~3 (HPEZ), and
// ~10 and ~11 (MGARD at a tight bound), whose codes of 13–19 bits carry
// 7 % and 12 % of the symbols (a real MGARD S3D QP stream: 12 %).
var decodeProfiles = []struct {
	name string
	r    float64
}{
	{"1bit", 0.02},
	{"1.5bit", 0.25},
	{"3bit", 0.6},
	{"10bit", 0.995},
	{"11bit", 0.997},
}

// BenchmarkDecodeBody times both decode kernels on each profile,
// including the table build a decode pays for; ns/symbol is the figure to
// compare across profiles, bits/symbol what the profile codes to, long
// the share of its symbols coded in more than fastBits bits, and auto=1
// marks the kernel multiPays picks for it.
func BenchmarkDecodeBody(b *testing.B) {
	const n = 1 << 18
	for pi, p := range decodeProfiles {
		q := geometricStream(n, p.r, int64(pi+1))
		syms, lengths, _, body := splitStream(b, plainStream(q))
		bits := float64(8*len(body)) / n
		lenOf := make(map[int32]uint8, len(syms))
		for i, s := range syms {
			lenOf[s] = lengths[i]
		}
		long := 0
		for _, v := range q {
			if lenOf[v] > fastBits {
				long++
			}
		}
		for _, multi := range []bool{false, true} {
			kernel := "single"
			if multi {
				kernel = "multi"
			}
			b.Run(fmt.Sprintf("%s/%s", p.name, kernel), func(b *testing.B) {
				out := make([]int32, n)
				blk := plainBlock(syms, lengths, body, n)
				for i := 0; i < b.N; i++ {
					if err := blk.decode(out, multi); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/symbol")
				b.ReportMetric(bits, "bits/symbol")
				b.ReportMetric(float64(long)/n, "long")
				auto := 0.0
				if multiPays(n, len(body)) == multi {
					auto = 1
				}
				b.ReportMetric(auto, "auto")
			})
		}
	}
}
