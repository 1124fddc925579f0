package inttest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"scdc"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/quantizer"
)

// drainPools empties every sync.Pool: the first collection moves pooled
// objects to the victim cache, the second drops them.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// poisonedField puts a NaN-filled float buffer of exactly n values into
// the float pool, so the next decode of an n-point field takes it as its
// output, and returns it.
func poisonedField(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	quantizer.PutFloatBuf(buf)
	return buf
}

// firstDiff returns the first index at which two same-length slices hold
// different float64 bit patterns, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// drainedVersusPoisoned decodes twice — once with drained pools, once
// with the float pool holding a NaN-filled buffer of the field's size —
// and fails unless the second decode took that buffer, both fields match
// bit for bit, and neither carries capacity past its length.
func drainedVersusPoisoned(t *testing.T, name string, decode func() ([]float64, error)) {
	t.Helper()
	drainPools()
	fresh, err := decode()
	if err != nil {
		t.Fatalf("%s: drained decode: %v", name, err)
	}
	poison := poisonedField(len(fresh))
	reused, err := decode()
	if err != nil {
		t.Fatalf("%s: poisoned decode: %v", name, err)
	}
	if len(reused) == 0 || &reused[0] != &poison[0] {
		t.Fatalf("%s: the decode did not take the %d-value buffer the pool held", name, len(fresh))
	}
	if i := firstDiff(fresh, reused); i >= 0 {
		t.Errorf("%s: decode into a recycled buffer differs at point %d: %v, fresh %v", name, i, reused[i], fresh[i])
	}
	if cap(fresh) != len(fresh) || cap(reused) != len(reused) {
		t.Errorf("%s: field capacity %d / %d for %d points", name, cap(fresh), cap(reused), len(fresh))
	}
}

// TestPooledFieldInvariant: a decoded field may be a recycled float
// buffer with arbitrary contents, because every interpolation decoder
// writes every point of its field. Each golden pin of SZ3 (interpolation
// and Lorenzo), QoZ, HPEZ and MGARD — chunk by chunk for a chunked one —
// and each back-end engine's stream with QP on and off over 1D–4D fields
// decodes the same with drained pools as into a NaN-filled pooled buffer.
func TestPooledFieldInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolsDropPuts() {
		t.Skip("sync.Pool drops Puts at random in this build (race detector)")
	}

	dir := filepath.Join("..", "..", "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins []struct {
		Name, File, Algorithm string
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	interpolating := map[string]bool{"SZ3": true, "QoZ": true, "HPEZ": true, "MGARD": true}
	covered := 0
	for _, pin := range pins {
		if !interpolating[pin.Algorithm] {
			continue
		}
		stream, err := os.ReadFile(filepath.Join(dir, pin.File))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if _, err := scdc.DecompressChunk(stream, i); errors.Is(err, scdc.ErrBadOptions) {
				break
			}
			drainedVersusPoisoned(t, fmt.Sprintf("%s chunk %d", pin.Name, i), func() ([]float64, error) {
				res, err := scdc.DecompressChunk(stream, i)
				if err != nil {
					return nil, err
				}
				return res.Data, nil
			})
		}
		covered++
	}
	if covered < 40 {
		t.Fatalf("only %d golden pins of the interpolation engines", covered)
	}

	for _, dims := range [][]int{{301}, {19, 23}, {9, 10, 11}, {5, 6, 7, 8}} {
		// datagen fills at most three axes: the 4D field is a 3D one with
		// its first two axes merged.
		gen := dims
		if len(dims) == 4 {
			gen = []int{dims[0] * dims[1], dims[2], dims[3]}
		}
		f := grid.MustNew(dims...)
		copy(f.Data, datagen.MustGenerate(datagen.Miranda, 0, gen, 3).Data)
		eb := f.Range() * 1e-3
		for _, eng := range backendEngines {
			for _, qp := range []bool{false, true} {
				payload, err := eng.compress(f, eb, qp)
				if err != nil {
					t.Fatal(err)
				}
				drainedVersusPoisoned(t, fmt.Sprintf("%s/qp=%v/%v", eng.name, qp, dims), func() ([]float64, error) {
					out, err := eng.decompress(payload, dims)
					if err != nil {
						return nil, err
					}
					return out.Data, nil
				})
			}
		}
	}
}

// TestConcurrentRoundTrips runs round trips of fields of different sizes
// from several goroutines at once, so decodes take one another's pooled
// compress scratch, and checks each reconstruction against the one a
// single goroutine decoded first. Run it with -race -count=10 after
// changing the pools.
func TestConcurrentRoundTrips(t *testing.T) {
	type job struct {
		eng  backendEngine
		qp   bool
		f    *grid.Field
		want []float64
	}
	var jobs []job
	for i, dims := range [][]int{{24, 20, 16}, {16, 20, 24}, {30, 31}, {12, 12, 12}} {
		f := datagen.MustGenerate(datagen.Miranda, 0, dims, int64(i))
		for j, eng := range backendEngines {
			jobs = append(jobs, job{eng: eng, qp: (i+j)%2 == 0, f: f})
		}
	}
	roundTrip := func(jb job) ([]float64, error) {
		payload, err := jb.eng.compress(jb.f, jb.f.Range()*1e-3, jb.qp)
		if err != nil {
			return nil, err
		}
		out, err := jb.eng.decompress(payload, jb.f.Dims())
		if err != nil {
			return nil, err
		}
		return out.Data, nil
	}
	for i := range jobs {
		var err error
		if jobs[i].want, err = roundTrip(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(jobs) {
				jb := jobs[(g+r)%len(jobs)]
				got, err := roundTrip(jb)
				if err == nil && (len(got) != len(jb.want) || firstDiff(got, jb.want) >= 0) {
					err = fmt.Errorf("%s/qp=%v/%v: reconstruction differs from the serial one", jb.eng.name, jb.qp, jb.f.Dims())
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
