package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// bitsShapes are the geometries TestGenerateBits digests besides each
// spec's own dims (nil): an odd 3D shape, a 2D and a 1D one.
var bitsShapes = [][]int{nil, {9, 17, 5}, {33, 47}, {301}}

// bitsWorkloads are the benchmark workloads' global fields (each
// workload's dims plus its window margin), field 0 at seed 1.
var bitsWorkloads = []struct {
	d    Dataset
	dims []int
}{
	{Miranda, []int{120, 168, 168}},
	{SegSalt, []int{104, 104, 88}},
	{Scale, []int{57, 152, 152}},
	{S3D, []int{96, 96, 96}},
}

// fieldDigest is the first 8 bytes, in hex, of the SHA-256 of the
// field's float64 bit patterns in little-endian order.
func fieldDigest(data []float64) string {
	h := sha256.New()
	var buf [8 * 1024]byte
	for len(data) > 0 {
		n := min(len(data), len(buf)/8)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		data = data[n:]
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func shapeName(dims []int) string {
	if dims == nil {
		return "spec"
	}
	s := ""
	for i, n := range dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(n)
	}
	return s
}

// TestGenerateBits pins every generator's output bit for bit: the golden
// pins, results/ and the benchmark's ratios are all computed from these
// fields, so a generator may be restructured only if each point still
// sees the same float64 operations in the same order.
func TestGenerateBits(t *testing.T) {
	got := map[string]string{}
	for _, spec := range Specs() {
		for field := 0; field < 3; field++ {
			for _, dims := range bitsShapes {
				f := MustGenerate(spec.Dataset, field, dims, 1)
				got[fmt.Sprintf("%s/%d/%s", spec.Name, field, shapeName(dims))] = fieldDigest(f.Data)
			}
		}
	}
	for _, w := range bitsWorkloads {
		f := MustGenerate(w.d, 0, w.dims, 1)
		got[fmt.Sprintf("%s/0/%s", w.d, shapeName(w.dims))] = fieldDigest(f.Data)
	}
	for name, g := range got {
		if want, ok := generateBits[name]; !ok {
			t.Errorf("%s: no pinned digest (got %q)", name, g)
		} else if g != want {
			t.Errorf("%s: digest %s, want %s", name, g, want)
		}
	}
	if len(generateBits) != len(got) {
		t.Errorf("%d pinned digests, %d fields digested", len(generateBits), len(got))
	}
}

// generateBits holds each field's digest, keyed dataset/field/shape.
var generateBits = map[string]string{
	"CESM-3D/0/301":         "295f7ceecccc1f5b",
	"CESM-3D/0/33x47":       "a4c4a550547d5a6d",
	"CESM-3D/0/9x17x5":      "dca599552ace2ba4",
	"CESM-3D/0/spec":        "d83e287a99aa72df",
	"CESM-3D/1/301":         "175a7cbc6d7ecef3",
	"CESM-3D/1/33x47":       "d6561a1d7eb91e6f",
	"CESM-3D/1/9x17x5":      "4e5bc67eeb14de80",
	"CESM-3D/1/spec":        "b6938884f72e20ed",
	"CESM-3D/2/301":         "a46cf66ff851f6fd",
	"CESM-3D/2/33x47":       "a536e9a019c6e2a6",
	"CESM-3D/2/9x17x5":      "f13fa829e4c3e960",
	"CESM-3D/2/spec":        "f12d8b4784da1a45",
	"Hurricane/0/301":       "a4a7d66777095b42",
	"Hurricane/0/33x47":     "0dcaba6f03c43556",
	"Hurricane/0/9x17x5":    "e95e2761254d53f1",
	"Hurricane/0/spec":      "1a0140cd7dd78310",
	"Hurricane/1/301":       "b4ac4e08cef2b766",
	"Hurricane/1/33x47":     "b3fc780b120cb48a",
	"Hurricane/1/9x17x5":    "fe1eaf12957b1bb7",
	"Hurricane/1/spec":      "a3a161f475bff5c2",
	"Hurricane/2/301":       "f7ab2a4ffebfdd76",
	"Hurricane/2/33x47":     "01b28da171259898",
	"Hurricane/2/9x17x5":    "0b15401b735bf6e9",
	"Hurricane/2/spec":      "53c8226784729641",
	"Miranda/0/120x168x168": "edc983218d35ca6a",
	"Miranda/0/301":         "873ab1af9e6c6f7b",
	"Miranda/0/33x47":       "837ca9c9afbaa011",
	"Miranda/0/9x17x5":      "355ae6c2ea605ce8",
	"Miranda/0/spec":        "cfcdd4f9cec006e8",
	"Miranda/1/301":         "2ec781dc913669a9",
	"Miranda/1/33x47":       "019632fbde2a77e6",
	"Miranda/1/9x17x5":      "aee65fc955fedd3d",
	"Miranda/1/spec":        "c23f8f87f208e2f7",
	"Miranda/2/301":         "24fa6762ec7caa38",
	"Miranda/2/33x47":       "e240f90b7048153c",
	"Miranda/2/9x17x5":      "dff42fb08c9eb7d8",
	"Miranda/2/spec":        "889c418419ab8c08",
	"RTM/0/301":             "8240bae4650ed794",
	"RTM/0/33x47":           "33af279208e015b0",
	"RTM/0/9x17x5":          "dea36ef4671407f1",
	"RTM/0/spec":            "c17b4d584982c0cc",
	"RTM/1/301":             "f9df34b2571838ad",
	"RTM/1/33x47":           "01ee2230798bfe0a",
	"RTM/1/9x17x5":          "aadb7420aba659f9",
	"RTM/1/spec":            "70da953746e3c49a",
	"RTM/2/301":             "1aaeaac03f79db34",
	"RTM/2/33x47":           "f9969170c9477b0e",
	"RTM/2/9x17x5":          "7126525b079a85ce",
	"RTM/2/spec":            "2f3aa2229a42022d",
	"S3D/0/301":             "2fd0925513465fff",
	"S3D/0/33x47":           "e4fbe171cea117a9",
	"S3D/0/96x96x96":        "2c0e349970dea677",
	"S3D/0/9x17x5":          "24a3168b1495b25c",
	"S3D/0/spec":            "d6e9c1e6ce82dd70",
	"S3D/1/301":             "42776ed4a9b64d8a",
	"S3D/1/33x47":           "1e3a27d3f8f61cfc",
	"S3D/1/9x17x5":          "64c2fabafbaf6a4c",
	"S3D/1/spec":            "d4462c55ee0f4343",
	"S3D/2/301":             "0562d74459a9b3fa",
	"S3D/2/33x47":           "66b57b161ac6f17b",
	"S3D/2/9x17x5":          "22fc382658e7da60",
	"S3D/2/spec":            "50cd949cd78e930c",
	"SCALE/0/301":           "614cbed9e9a5324f",
	"SCALE/0/33x47":         "559c634fe1ddd33e",
	"SCALE/0/57x152x152":    "7e31a7adf57bd29b",
	"SCALE/0/9x17x5":        "8991a38a05d82a9a",
	"SCALE/0/spec":          "aac80864b9746717",
	"SCALE/1/301":           "f51a87ed0a07b85f",
	"SCALE/1/33x47":         "3933e224f5cb60b7",
	"SCALE/1/9x17x5":        "7fa70f4cd6fa0992",
	"SCALE/1/spec":          "ec4f155609948641",
	"SCALE/2/301":           "997c8a9ad0008299",
	"SCALE/2/33x47":         "416a7ca470d1930b",
	"SCALE/2/9x17x5":        "9da4f3044bb5f005",
	"SCALE/2/spec":          "39c7b3859f038f16",
	"SegSalt/0/104x104x88":  "3b158358da742dd8",
	"SegSalt/0/301":         "605008c296aad597",
	"SegSalt/0/33x47":       "6ab559834fe6be22",
	"SegSalt/0/9x17x5":      "f6b469a6eb2bc2ba",
	"SegSalt/0/spec":        "0529c561921c5b44",
	"SegSalt/1/301":         "1be83ada3bdc60ad",
	"SegSalt/1/33x47":       "1b13880ba408788f",
	"SegSalt/1/9x17x5":      "9bd880eb7e930915",
	"SegSalt/1/spec":        "b6a7bb7bb4e64da3",
	"SegSalt/2/301":         "fb4d60e3bf85cb2f",
	"SegSalt/2/33x47":       "849b365d03531b05",
	"SegSalt/2/9x17x5":      "9ce2efc3729b610c",
	"SegSalt/2/spec":        "66f311bce6fbc0d7",
}
