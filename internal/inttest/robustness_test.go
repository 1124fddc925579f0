package inttest

import (
	"math"
	"math/rand"
	"testing"

	"scdc"
	"scdc/internal/datagen"
)

// TestCorruptionNeverPanics: random single-byte flips and truncations of
// valid streams must produce errors (or, rarely, a wrong-but-well-formed
// result), never a panic or an out-of-bounds access, for every algorithm.
func TestCorruptionNeverPanics(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{20, 24, 28}, 3)
	rng := rand.New(rand.NewSource(99))
	for alg := scdc.SZ3; alg <= scdc.SPERR; alg++ {
		opts := scdc.Options{Algorithm: alg, RelativeBound: 1e-3}
		if alg.SupportsQP() {
			opts.QP = scdc.DefaultQP()
		}
		stream, err := scdc.Compress(f.Data, f.Dims(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 120; trial++ {
			mutated := append([]byte(nil), stream...)
			switch trial % 3 {
			case 0: // single byte flip
				pos := rng.Intn(len(mutated))
				mutated[pos] ^= byte(1 + rng.Intn(255))
			case 1: // truncation
				mutated = mutated[:rng.Intn(len(mutated))]
			case 2: // multi-byte garbage
				for k := 0; k < 8; k++ {
					mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v trial %d: decoder panicked: %v", alg, trial, r)
					}
				}()
				res, err := scdc.Decompress(mutated)
				if err == nil && len(res.Data) != f.Len() {
					t.Fatalf("%v trial %d: silent wrong-size result", alg, trial)
				}
			}()
		}
	}
}

// TestChunkedCorruptionNeverPanics covers the chunked container the same
// way.
func TestChunkedCorruptionNeverPanics(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{20, 24, 28}, 3)
	stream, err := scdc.CompressChunked(f.Data, f.Dims(), scdc.Options{Algorithm: scdc.SZ3, RelativeBound: 1e-3, Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 80; trial++ {
		mutated := append([]byte(nil), stream...)
		if trial%2 == 0 {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		} else {
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: chunked decoder panicked: %v", trial, r)
				}
			}()
			_, _ = scdc.DecompressParallel(mutated, 2)
			_, _ = scdc.Inspect(mutated)
		}()
	}
}

// TestNaNData: NaN and Inf samples must round-trip bit-exactly through
// the literal path of the prediction-based compressors without poisoning
// neighboring reconstructions.
func TestNaNData(t *testing.T) {
	f := datagen.MustGenerate(datagen.SegSalt, 0, []int{16, 18, 20}, 4)
	f.Data[100] = math.NaN()
	f.Data[2000] = math.Inf(1)
	f.Data[3000] = math.Inf(-1)
	for _, alg := range []scdc.Algorithm{scdc.SZ3, scdc.QoZ, scdc.HPEZ, scdc.MGARD} {
		stream, err := scdc.Compress(f.Data, f.Dims(), scdc.Options{Algorithm: alg, ErrorBound: 1e-3, QP: scdc.DefaultQP()})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		res, err := scdc.Decompress(stream)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !math.IsNaN(res.Data[100]) {
			t.Errorf("%v: NaN not preserved", alg)
		}
		if !math.IsInf(res.Data[2000], 1) || !math.IsInf(res.Data[3000], -1) {
			t.Errorf("%v: Inf not preserved", alg)
		}
		// Finite samples still respect the bound.
		bad := 0
		for i, v := range res.Data {
			if i == 100 || i == 2000 || i == 3000 {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad++
				continue
			}
			if math.Abs(v-f.Data[i]) > 1e-3*(1+1e-12) {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%v: %d finite samples corrupted near non-finite values", alg, bad)
		}
	}
}
