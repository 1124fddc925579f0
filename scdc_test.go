package scdc

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scdc/datasets"
)

func testField(t *testing.T) ([]float64, []int) {
	t.Helper()
	data, dims, err := datasets.Generate("Miranda", 0, []int{32, 40, 44}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return data, dims
}

func TestAllAlgorithmsRoundTrip(t *testing.T) {
	data, dims := testField(t)
	for alg := SZ3; alg < numAlgorithms; alg++ {
		stream, err := Compress(data, dims, Options{Algorithm: alg, RelativeBound: 1e-3})
		if err != nil {
			t.Fatalf("%v compress: %v", alg, err)
		}
		res, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%v decompress: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Fatalf("%v: stream reports %v", alg, res.Algorithm)
		}
		if len(res.Data) != len(data) {
			t.Fatalf("%v: length mismatch", alg)
		}
		maxErr, _ := MaxAbsError(data, res.Data)
		rng := 0.0
		lo, hi := data[0], data[0]
		for _, v := range data {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		rng = hi - lo
		bound := 1e-3 * rng
		if alg == TTHRESH {
			mse, _ := MSE(data, res.Data)
			if math.Sqrt(mse) > bound {
				t.Errorf("%v: RMSE %g > %g", alg, math.Sqrt(mse), bound)
			}
			continue
		}
		if maxErr > bound*(1+1e-12) {
			t.Errorf("%v: max error %g > %g", alg, maxErr, bound)
		}
	}
}

func TestQPAcrossBases(t *testing.T) {
	data, dims := testField(t)
	for _, alg := range []Algorithm{SZ3, QoZ, HPEZ, MGARD} {
		base, err := Compress(data, dims, Options{Algorithm: alg, RelativeBound: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		qp, err := Compress(data, dims, Options{Algorithm: alg, RelativeBound: 1e-4, QP: DefaultQP()})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Decompress(base)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := Decompress(qp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rb.Data {
			if rb.Data[i] != rq.Data[i] {
				t.Fatalf("%v: QP changed decompressed data at %d", alg, i)
			}
		}
		t.Logf("%v: base=%d qp=%d bytes (%+.1f%%)", alg, len(base), len(qp),
			100*(float64(len(base))/float64(len(qp))-1))
	}
}

func TestQPRejectedForTransformCodecs(t *testing.T) {
	data, dims := testField(t)
	for _, alg := range []Algorithm{ZFP, TTHRESH, SPERR} {
		if _, err := Compress(data, dims, Options{Algorithm: alg, ErrorBound: 1e-3, QP: DefaultQP()}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%v with QP: got %v, want ErrBadOptions", alg, err)
		}
	}
}

// TestOptionsSettable: a library user can set every Options field, so no
// type reachable from one — through pointers, slices, arrays, maps and
// struct fields — lives under scdc/internal/, which no program outside
// this module may import.
func TestOptionsSettable(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if strings.HasPrefix(typ.PkgPath(), "scdc/internal/") {
			t.Errorf("%s is of internal type %v (package %s)", path, typ, typ.PkgPath())
			return
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path, typ.Elem())
		case reflect.Map:
			walk(path, typ.Key())
			walk(path, typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Options", reflect.TypeOf(Options{}))
}

// rejected runs one set of options through every compress entry point and
// requires each to fail with ErrBadOptions — the only verdict a compress
// call has.
func rejected(t *testing.T, what string, data []float64, dims []int, opts Options) {
	t.Helper()
	f32 := make([]float32, len(data))
	for i, v := range data {
		f32[i] = float32(v)
	}
	_, err := Compress(data, dims, opts)
	_, _, errStats := CompressWithStats(data, dims, opts)
	_, err32 := CompressFloat32(f32, dims, opts)
	_, errChunked := CompressChunked(data, dims, opts, 0)
	_, _, errChunkedStats := CompressChunkedWithStats(data, dims, opts, 0)
	for entry, err := range map[string]error{"Compress": err, "CompressWithStats": errStats, "CompressFloat32": err32,
		"CompressChunked": errChunked, "CompressChunkedWithStats": errChunkedStats} {
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: %s: got %v, want ErrBadOptions", what, entry, err)
		}
	}
}

func TestBoundResolution(t *testing.T) {
	data, dims := testField(t)
	rejected(t, "missing bound", data, dims, Options{})
	rejected(t, "double bound", data, dims, Options{ErrorBound: 1e-3, RelativeBound: 1e-3})
	rejected(t, "infinite bound", data, dims, Options{ErrorBound: math.Inf(1)})
	rejected(t, "negative bound", data, dims, Options{ErrorBound: -1})
	rejected(t, "NaN bound", data, dims, Options{ErrorBound: math.NaN()})
	rejected(t, "bad algorithm", data, dims, Options{Algorithm: 99, ErrorBound: 1e-3})
	rejected(t, "bad dims", data[:5], dims, Options{ErrorBound: 1e-3})
	rejected(t, "bad entropy coder", data, dims, Options{ErrorBound: 1e-3, Entropy: 9})
	rejected(t, "bad lossless codec", data, dims, Options{ErrorBound: 1e-3, Lossless: 99})

	// A relative bound is resolved against the data, so the data can make
	// it unusable: a non-finite value range, or a product that underflows
	// to zero. That is the front door's to reject, with the range in the
	// message, before any engine runs — for every algorithm alike.
	withInf := slices.Clone(data)
	withInf[len(withInf)/2] = math.Inf(1)
	tiny := make([]float64, len(data))
	for i, v := range data {
		tiny[i] = v * 1e-30 // still distinct values in float32
	}
	for alg := SZ3; alg < numAlgorithms; alg++ {
		rejected(t, alg.String()+" relative bound over +Inf", withInf, dims, Options{Algorithm: alg, RelativeBound: 1e-3})
		rejected(t, alg.String()+" relative bound underflow", tiny, dims, Options{Algorithm: alg, RelativeBound: 1e-300})
	}
	_, err := Compress(withInf, dims, Options{RelativeBound: 1e-3})
	if err == nil || !strings.Contains(err.Error(), "value range +Inf") {
		t.Errorf("relative bound over +Inf: %v does not name the range", err)
	}

	// An undefined QP mode or condition reaches the engines' shared
	// option check; its verdict is the same one.
	for alg := SZ3; alg <= MGARD; alg++ {
		rejected(t, alg.String()+" QP mode 9", data, dims, Options{Algorithm: alg, ErrorBound: 1e-3, QP: QPConfig{Mode: 9}})
		rejected(t, alg.String()+" QP condition 9", data, dims, Options{Algorithm: alg, ErrorBound: 1e-3, QP: QPConfig{Mode: QP2D, Condition: 9}})
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	data, dims := testField(t)
	f32 := make([]float32, len(data))
	for i, v := range data {
		f32[i] = float32(v)
	}
	stream, err := CompressFloat32(f32, dims, Options{Algorithm: SZ3, RelativeBound: 1e-3, QP: DefaultQP()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Float32()
	if len(out) != len(f32) {
		t.Fatal("length mismatch")
	}
}

func TestContainerValidation(t *testing.T) {
	data, dims := testField(t)
	stream, err := Compress(data, dims, Options{Algorithm: SZ3, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := Decompress([]byte("BOGUSDATA")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), stream...)
	bad[4] = 99
	if _, err := Decompress(bad); err == nil {
		t.Error("bad version accepted")
	}
	bad = append([]byte(nil), stream...)
	bad[5] = 99
	if _, err := Decompress(bad); err == nil {
		t.Error("bad algorithm accepted")
	}
	if _, err := Decompress(stream[:20]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for alg := SZ3; alg < numAlgorithms; alg++ {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", alg.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestParseLosslessCodec: the menu is default, store and auto; the names
// of the forced forms it lost are options errors, as is an out-of-range
// value handed to Compress.
func TestParseLosslessCodec(t *testing.T) {
	for _, c := range []LosslessCodec{LosslessDefault, LosslessStore, LosslessAuto} {
		if got, err := ParseLosslessCodec(c.String()); err != nil || got != c {
			t.Errorf("ParseLosslessCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, name := range []string{"flate", "lz", "huffman", "sharded"} {
		if _, err := ParseLosslessCodec(name); !errors.Is(err, ErrBadOptions) {
			t.Errorf("ParseLosslessCodec(%q): got %v, want ErrBadOptions", name, err)
		}
	}
	data := make([]float64, 64)
	if _, err := Compress(data, []int{64}, Options{ErrorBound: 1e-3, Lossless: LosslessAuto + 1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("lossless codec %d: got %v, want ErrBadOptions", LosslessAuto+1, err)
	}
}

func TestConstantField(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 42
	}
	stream, err := Compress(data, []int{10, 10, 10}, Options{Algorithm: SZ3, RelativeBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Data {
		if math.Abs(v-42) > 1e-3 {
			t.Fatalf("constant field value %g", v)
		}
	}
}

func TestDatasetsPackage(t *testing.T) {
	infos := datasets.List()
	if len(infos) != 7 {
		t.Fatalf("want 7 datasets, got %d", len(infos))
	}
	if _, _, err := datasets.Generate("nope", 0, nil, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	data, dims, err := datasets.Generate("SegSalt", 0, []int{16, 16, 16}, 1)
	if err != nil || len(data) != 4096 || len(dims) != 3 {
		t.Fatalf("SegSalt generate: %v", err)
	}
}
