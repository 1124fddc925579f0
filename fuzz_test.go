package scdc

import (
	"math"
	"testing"

	"scdc/internal/datagen"
)

// fuzzSeedStreams compresses a few tiny real fields so the fuzzers start
// from valid streams of several algorithms and container shapes instead of
// random noise.
func fuzzSeedStreams(f *testing.F) [][]byte {
	f.Helper()
	fld := datagen.MustGenerate(datagen.Miranda, 0, []int{8, 10, 12}, 7)
	var seeds [][]byte
	for _, opts := range []Options{
		{Algorithm: SZ3, ErrorBound: 1e-3},
		{Algorithm: SZ3, ErrorBound: 1e-3, QP: DefaultQP(), Shards: 2},
		{Algorithm: QoZ, ErrorBound: 1e-3, QP: DefaultQP()},
		{Algorithm: HPEZ, ErrorBound: 1e-2},
		{Algorithm: MGARD, ErrorBound: 1e-2},
		{Algorithm: ZFP, ErrorBound: 1e-2},
		{Algorithm: TTHRESH, ErrorBound: 1e-2},
		{Algorithm: SPERR, ErrorBound: 1e-2},
	} {
		s, err := Compress(fld.Data, fld.Dims(), opts)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, s)
	}
	// 1D and a legacy v1 stream round out the corpus.
	line := make([]float64, 256)
	for i := range line {
		line[i] = math.Sin(float64(i) / 11)
	}
	s, err := Compress(line, []int{256}, Options{Algorithm: SZ3, ErrorBound: 1e-4})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, s)
	v1 := append([]byte(nil), s[:len(s)-footerSize]...)
	v1[4] = formatV1
	seeds = append(seeds, v1)
	return seeds
}

// FuzzDecompress: arbitrary bytes through the plain container must return
// an error or a well-formed result — never panic, never allocate
// proportionally to a lying header.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		f.Add(s)
	}
	f.Add([]byte("SCDC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Decompress(data)
		if err != nil {
			return
		}
		n := 1
		for _, d := range res.Dims {
			n *= d
		}
		if n != len(res.Data) {
			t.Fatalf("dims %v disagree with %d values", res.Dims, len(res.Data))
		}
		// A successful decode must also succeed (identically) in parallel.
		par, err := DecompressParallel(data, 3)
		if err != nil {
			t.Fatalf("sequential decoded but parallel failed: %v", err)
		}
		for i := range res.Data {
			a, b := res.Data[i], par.Data[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("parallel decode differs at %d", i)
			}
		}
	})
}

// FuzzDecompressChunked covers the chunked container, partial chunk
// extraction, and Inspect on the same bytes.
func FuzzDecompressChunked(f *testing.F) {
	fld := datagen.MustGenerate(datagen.Miranda, 0, []int{12, 10, 8}, 3)
	for _, workers := range []int{1, 3} {
		s, err := CompressChunked(fld.Data, fld.Dims(), Options{Algorithm: SZ3, ErrorBound: 1e-3}, workers, 5)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	f.Add([]byte("SCDC\x02\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecompressParallel(data, 2)
		if err == nil {
			n := 1
			for _, d := range res.Dims {
				n *= d
			}
			if n != len(res.Data) {
				t.Fatalf("dims %v disagree with %d values", res.Dims, len(res.Data))
			}
		}
		_, _ = DecompressChunk(data, 0)
		if info, err := Inspect(data); err == nil && info.Points < 0 {
			t.Fatalf("negative point count %d", info.Points)
		}
	})
}

// FuzzRoundTrip is the differential target: any synthesized field must
// compress, decompress within the bound, and decode byte-identically with
// QP on and off — the paper's core guarantee — for every interpolation
// base.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(3))
	f.Add([]byte{0xff, 0x00, 0x80, 0x10}, uint8(1), uint8(6))
	f.Add([]byte{9}, uint8(3), uint8(10))
	f.Fuzz(func(t *testing.T, raw []byte, algByte, ebByte uint8) {
		alg := Algorithm(algByte % 4) // SZ3, QoZ, HPEZ, MGARD
		eb := math.Pow(10, -1-float64(ebByte%8))

		// Derive a small field deterministically from raw: dims from the
		// first bytes, samples from a seeded mix of the rest.
		get := func(i int) int {
			if len(raw) == 0 {
				return 0
			}
			return int(raw[i%len(raw)])
		}
		nd := 1 + get(0)%3
		dims := make([]int, nd)
		n := 1
		for i := range dims {
			dims[i] = 2 + get(i+1)%9
			n *= dims[i]
		}
		data := make([]float64, n)
		acc := uint64(2463534242)
		for i := range data {
			acc = acc*6364136223846793005 + uint64(get(i))*1442695040888963407 + 1
			data[i] = float64(int64(acc>>12)%4096)/512 + math.Sin(float64(i)/7)
		}

		base, err := Compress(data, dims, Options{Algorithm: alg, ErrorBound: eb})
		if err != nil {
			t.Fatalf("%v eb=%g dims=%v: compress: %v", alg, eb, dims, err)
		}
		qp, err := Compress(data, dims, Options{Algorithm: alg, ErrorBound: eb, QP: DefaultQP()})
		if err != nil {
			t.Fatalf("%v eb=%g dims=%v: QP compress: %v", alg, eb, dims, err)
		}
		rb, err := Decompress(base)
		if err != nil {
			t.Fatalf("%v: decompress: %v", alg, err)
		}
		rq, err := Decompress(qp)
		if err != nil {
			t.Fatalf("%v: QP decompress: %v", alg, err)
		}
		for i := range data {
			if math.Abs(rb.Data[i]-data[i]) > eb*(1+1e-12) {
				t.Fatalf("%v eb=%g dims=%v: bound violated at %d: %g vs %g",
					alg, eb, dims, i, rb.Data[i], data[i])
			}
			if rb.Data[i] != rq.Data[i] {
				t.Fatalf("%v eb=%g dims=%v: QP output differs at %d (%g vs %g)",
					alg, eb, dims, i, rq.Data[i], rb.Data[i])
			}
		}
	})
}
