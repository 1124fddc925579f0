package lossless_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scdc/internal/lossless"
)

// flateBody compresses src as a tag-1 stream and returns its DEFLATE
// body, failing unless the stream inflates back to src through both
// lossless.Decompress and compress/flate's reader, and the body stays
// within the room the encoder is given.
func flateBody(t *testing.T, src []byte) []byte {
	t.Helper()
	stream, err := lossless.Compress(lossless.Flate, src)
	if err != nil {
		t.Fatal(err)
	}
	_, k := binary.Uvarint(stream[1:])
	body := stream[1+k:]
	if len(body) > lossless.FlateBound(len(src)) {
		t.Fatalf("body %d B for %d B, past the bound %d B", len(body), len(src), lossless.FlateBound(len(src)))
	}
	got, err := lossless.Decompress(stream)
	if err != nil {
		t.Fatalf("lossless.Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("lossless.Decompress: bytes differ from the plaintext")
	}
	got, err = io.ReadAll(flate.NewReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatalf("compress/flate: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("compress/flate: bytes differ from the plaintext")
	}
	return body
}

// TestFlateSegmentsWorkloads: on each workload plaintext, QP on and off,
// the body inflates to the plaintext through both readers and is no more
// than 0.1 % longer than compress/flate's whole-buffer level-6 stream.
// Only mgard_tight's Huffman body is stored, and no segment the plan sends
// to DEFLATE comes out of it larger than stored.
func TestFlateSegmentsWorkloads(t *testing.T) {
	plains, err := workloadPlaintexts()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plains {
		t.Run(p.name, func(t *testing.T) {
			body := flateBody(t, p.data)
			whole := deflate(t, p.data, flate.DefaultCompression)
			plan := lossless.FlatePlan(p.data)
			n, k := len(p.data), len(plan)
			for i, pays := range plan {
				seg := p.data[i*n/k : (i+1)*n/k]
				if d := len(lossless.FlateBody(seg)); pays && d > len(seg)+5 {
					t.Errorf("segment %d: DEFLATE writes %d B, stored %d B", i, d, len(seg)+5)
				}
			}
			allPay := !slices.Contains(plan, false)
			if mgard := strings.HasPrefix(p.name, "mgard_tight/"); allPay == mgard {
				t.Fatalf("every segment pays = %v, want %v", allPay, !mgard)
			}
			if len(body) > len(whole)+len(whole)/1000 {
				t.Fatalf("body %d B, compress/flate level 6 %d B", len(body), len(whole))
			}
		})
	}
}

// TestFlateSegmentsMixes drives the segment boundaries on synthetic
// buffers built from paying (p: skewed runs) and stored (s: uniform
// noise) segments: each case must take the plan its name spells, round
// trip through both decoders, and equal one run of blocks over the whole
// buffer when every segment pays.
func TestFlateSegmentsMixes(t *testing.T) {
	const seg = lossless.FlateSegment
	rng := rand.New(rand.NewSource(46))
	pays := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(4)) * byte(rng.Intn(2))
		}
		return out
	}
	noise := func(n int) []byte {
		out := make([]byte, n)
		rng.Read(out)
		return out
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	cases := []struct {
		name string
		src  []byte
		plan []bool
	}{
		{"stored first", cat(noise(seg), pays(seg)), []bool{false, true}},
		{"stored last", cat(pays(seg), noise(seg)), []bool{true, false}},
		{"flate, stored, flate", cat(pays(seg), noise(seg), pays(seg)), []bool{true, false, true}},
		{"stored, flate, stored", cat(noise(seg), pays(seg), noise(seg)), []bool{false, true, false}},
		{"stored run over 65535 B", cat(pays(seg), noise(2*seg), pays(seg)), []bool{true, false, false, true}},
		{"all stored", noise(3 * seg), []bool{false, false, false}},
		{"all flate", pays(3*seg + 7), []bool{true, true, true, true}},
		{"one segment of noise", noise(seg), []bool{true}},
		{"one byte over, noise", noise(seg + 1), []bool{false, false}},
		{"one byte over, paying", pays(seg + 1), []bool{true, true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if plan := lossless.FlatePlan(c.src); !slices.Equal(plan, c.plan) {
				t.Fatalf("plan %v, want %v", plan, c.plan)
			}
			body := flateBody(t, c.src)
			if !slices.Contains(c.plan, false) {
				if whole := lossless.FlateBody(c.src); !bytes.Equal(body, whole) {
					t.Fatalf("body differs from one run over the buffer (%d vs %d B)", len(body), len(whole))
				}
			}
		})
	}
}

// FuzzDeflate runs the Flate encoder over arbitrary plaintexts: flateBody
// inflates each body through the in-package inflater and compress/flate's
// reader and holds it to the encoder's bound. The seeds are FuzzInflate's
// plaintext prefixes, a buffer that crosses the segment size with a
// stored stretch, and a few arbitrary byte strings. Its minimizations are
// capped (capMinimize).
func FuzzDeflate(f *testing.F) {
	capMinimize(f)
	_, prefixes := goldenSeeds(f)
	for _, p := range prefixes {
		f.Add(p)
	}
	rng := rand.New(rand.NewSource(52))
	mixed := make([]byte, lossless.FlateSegment+1000)
	rng.Read(mixed[lossless.FlateSegment/2:])
	f.Add(mixed)
	f.Add([]byte{})
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("abcd"), 300))
	f.Fuzz(func(t *testing.T, src []byte) {
		flateBody(t, src)
	})
}

// BenchmarkDeflateWorkloads times the Flate encoder on the lossless-stage
// plaintexts of the four benchmark workloads, QP on and off: the product
// path (lossless.Compress, the in-package writer, segment by segment) next
// to one whole-buffer pass of a reused level-6 compress/flate writer.
func BenchmarkDeflateWorkloads(b *testing.B) {
	plains, err := workloadPlaintexts()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range plains {
		stream, err := lossless.Compress(lossless.Flate, p.data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/encoder=deflate", p.name), func(b *testing.B) {
			b.SetBytes(int64(len(p.data)))
			for i := 0; i < b.N; i++ {
				if _, err := lossless.Compress(lossless.Flate, p.data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(p.data))/float64(len(stream)), "ratio")
		})
		b.Run(fmt.Sprintf("%s/encoder=stdlib", p.name), func(b *testing.B) {
			var buf bytes.Buffer
			w, err := flate.NewWriter(&buf, flate.DefaultCompression)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(p.data)))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				w.Reset(&buf)
				if _, err := w.Write(p.data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(p.data))/float64(buf.Len()), "ratio")
		})
	}
}
