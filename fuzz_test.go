package scdc

import (
	"errors"
	"math"
	"sort"
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

// addWithDamage seeds the corpus with a stream and with its re-sealed
// damaged copies (damagedStreams: payload cut and byte-flipped, footers
// matching), so the mutator starts below the container — on bytes the
// engines, the entropy coders and the lossless stage get to reject —
// instead of stopping at the footer check.
func addWithDamage(f *testing.F, stream []byte) {
	f.Helper()
	f.Add(stream)
	damaged := damagedStreams(f, stream)
	names := make([]string, 0, len(damaged))
	for what := range damaged {
		names = append(names, what)
	}
	sort.Strings(names) // seed numbering must not depend on map order
	for _, what := range names {
		f.Add(damaged[what])
	}
}

// typedDecodeError fails the test on a decode error outside the contract:
// every one is ErrCorrupt or ErrIntegrity.
func typedDecodeError(t *testing.T, reader string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIntegrity) {
		t.Fatalf("%s: error %v is neither ErrCorrupt nor ErrIntegrity", reader, err)
	}
}

// FuzzDecompress: arbitrary bytes through the plain container must return
// a well-formed result or ErrCorrupt/ErrIntegrity — never panic, never
// another error, never allocate proportionally to a lying header.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		addWithDamage(f, s)
	}
	hostileCounts := hostileIndexCounts(f)
	for _, name := range []string{"rice", "huffman", "sharded"} {
		f.Add(hostileCounts[name])
	}
	f.Add([]byte("SCDC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Decompress(data)
		if err != nil {
			typedDecodeError(t, "Decompress", err)
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
		s, err := CompressChunked(fld.Data, fld.Dims(), Options{Algorithm: SZ3, ErrorBound: 1e-3, Workers: workers}, 5)
		if err != nil {
			f.Fatal(err)
		}
		addWithDamage(f, s)
	}
	f.Add([]byte("SCDC\x02\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecompressParallel(data, 2)
		typedDecodeError(t, "DecompressParallel", err)
		if err == nil {
			n := 1
			for _, d := range res.Dims {
				n *= d
			}
			if n != len(res.Data) {
				t.Fatalf("dims %v disagree with %d values", res.Dims, len(res.Data))
			}
		}
		_, err = DecompressChunk(data, 0)
		typedDecodeError(t, "DecompressChunk", err)
		info, err := Inspect(data)
		typedDecodeError(t, "Inspect", err)
		if err == nil && info.Points < 0 {
			t.Fatalf("negative point count %d", info.Points)
		}
	})
}

// FuzzRoundTrip is the differential target: any synthesized field must
// compress, decompress within the bound, and decode byte-identically with
// QP off, with the paper's configuration and with a configuration drawn
// from the input — the paper's core guarantee — for every interpolation
// base. A drawn configuration outside the defined modes and conditions
// must be rejected, and a compress call rejects with ErrBadOptions only.
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

		drawn := QPConfig{Mode: QPMode(get(nd+1) % 8), Condition: QPCondition(get(nd+2) % 6), MaxLevel: get(nd+3) % 4}
		var fields [3]*Result
		for i, qp := range []QPConfig{{}, DefaultQP(), drawn} {
			stream, err := Compress(data, dims, Options{Algorithm: alg, ErrorBound: eb, QP: qp})
			if err != nil && !errors.Is(err, ErrBadOptions) {
				t.Fatalf("%v eb=%g dims=%v qp=%+v: compress error %v is not ErrBadOptions", alg, eb, dims, qp, err)
			}
			if valid := qp.Mode <= QP3D && qp.Condition <= QPCaseIV; (err == nil) != valid {
				t.Fatalf("%v eb=%g dims=%v qp=%+v: compress: %v", alg, eb, dims, qp, err)
			}
			if err != nil {
				continue
			}
			if fields[i], err = Decompress(stream); err != nil {
				t.Fatalf("%v qp=%+v: decompress: %v", alg, qp, err)
			}
		}
		rb := fields[0]
		for i := range data {
			if math.Abs(rb.Data[i]-data[i]) > eb*(1+1e-12) {
				t.Fatalf("%v eb=%g dims=%v: bound violated at %d: %g vs %g",
					alg, eb, dims, i, rb.Data[i], data[i])
			}
			for _, rq := range fields[1:] {
				if rq != nil && rb.Data[i] != rq.Data[i] {
					t.Fatalf("%v eb=%g dims=%v: QP output differs at %d (%g vs %g)",
						alg, eb, dims, i, rq.Data[i], rb.Data[i])
				}
			}
		}
	})
}
