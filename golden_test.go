package scdc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"scdc/internal/core"
	"scdc/internal/lossless"
	"scdc/internal/sz3"
)

// goldenEntry mirrors the manifest schema written by cmd/golden.
type goldenEntry struct {
	Name          string  `json:"name"`
	File          string  `json:"file"`
	Algorithm     string  `json:"algorithm"`
	Dims          []int   `json:"dims"`
	ErrorBound    float64 `json:"error_bound"`
	QP            bool    `json:"qp"`
	Chunked       bool    `json:"chunked"`
	V1            bool    `json:"v1"`
	Entropy       string  `json:"entropy"`
	Lossless      string  `json:"lossless"`
	StreamSHA256  string  `json:"stream_sha256"`
	DecodedSHA256 string  `json:"decoded_sha256"`
}

func loadGoldenManifest(t testing.TB) []goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "manifest.json"))
	if err != nil {
		t.Fatalf("golden manifest: %v (regenerate with `go run ./cmd/golden -update`)", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("golden manifest: %v", err)
	}
	if len(entries) < 40 {
		t.Fatalf("golden manifest lists only %d entries; corpus incomplete", len(entries))
	}
	return entries
}

// TestGoldenCorpus decodes every committed golden stream and checks the
// SHA-256 of the decoded samples (and of the stream itself) against the
// manifest. Any change to the container layout, an entropy coder, or a
// predictor that alters bytes on either side fails here by name.
func TestGoldenCorpus(t *testing.T) {
	for _, e := range loadGoldenManifest(t) {
		t.Run(e.Name, func(t *testing.T) {
			stream, err := os.ReadFile(filepath.Join("testdata", "golden", e.File))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(stream); hex.EncodeToString(got[:]) != e.StreamSHA256 {
				t.Fatalf("stream hash drifted: compressed output changed for %s", e.Name)
			}

			res, err := DecompressParallel(stream, 2)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(res.Dims) != len(e.Dims) {
				t.Fatalf("dims %v, want %v", res.Dims, e.Dims)
			}
			for i, d := range e.Dims {
				if res.Dims[i] != d {
					t.Fatalf("dims %v, want %v", res.Dims, e.Dims)
				}
			}

			buf := make([]byte, 0, 8*len(res.Data))
			for _, v := range res.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			if got := sha256.Sum256(buf); hex.EncodeToString(got[:]) != e.DecodedSHA256 {
				t.Fatalf("decoded bytes drifted for %s: decoder no longer reproduces the recorded output", e.Name)
			}

			info, err := Inspect(stream)
			if err != nil {
				t.Fatalf("inspect: %v", err)
			}
			if info.Algorithm.String() != e.Algorithm {
				t.Fatalf("inspect algorithm %v, want %s", info.Algorithm, e.Algorithm)
			}
			if e.V1 {
				if info.Version != 1 || info.Integrity {
					t.Fatalf("v1 stream reported version %d integrity %v", info.Version, info.Integrity)
				}
			} else if !info.Integrity {
				t.Fatalf("v2 stream reported no integrity footer")
			}
		})
	}
}

// TestGoldenCoverage asserts the corpus actually spans the matrix the
// format promises to keep stable: every algorithm in 1D–4D, QP on for
// every algorithm that supports it, chunked and v1 containers, the
// decode-only rice and auto-picked index streams, every lossless tag a
// writer has ever produced (flate, the decode-only LZ, the sharded
// container and Huffman), a sharded container as Auto writes it, and
// SZ3's Lorenzo mode: in 3D and 4D, and with a QP block that is on.
func TestGoldenCoverage(t *testing.T) {
	entries := loadGoldenManifest(t)
	type key struct {
		alg string
		nd  int
		qp  bool
	}
	seen := make(map[key]bool)
	var chunked, v1 bool
	rice := make(map[string]bool)
	var auto bool
	backends := make(map[string]bool)
	tags := make(map[lossless.Codec]bool)
	var autoSharded, lorenzoQP bool
	lorenzo := make(map[int]bool) // by ndims
	for _, e := range entries {
		seen[key{e.Algorithm, len(e.Dims), e.QP}] = true
		chunked = chunked || e.Chunked
		v1 = v1 || e.V1
		if e.Entropy == "rice" {
			rice[e.Algorithm] = true
		}
		auto = auto || e.Entropy == "auto"
		if e.Lossless != "" {
			backends[e.Lossless] = true
			tag := losslessTag(t, e.File)
			tags[tag] = true
			// The sharded container only engages past its 64KB input
			// threshold, so this takes a field big and noisy enough to
			// cross it (cmd/golden's sz3_3d_qpon_lossless_auto_sharded).
			autoSharded = autoSharded || (e.Lossless == "auto" && tag == lossless.Sharded)
		}
		if e.Algorithm == SZ3.String() && !e.Chunked {
			if mode, qp := sz3Mode(t, e.File); mode == sz3.ModeLorenzo {
				lorenzo[len(e.Dims)] = true
				lorenzoQP = lorenzoQP || qp
			}
		}
	}
	for _, alg := range []Algorithm{SZ3, QoZ, HPEZ, MGARD, ZFP, TTHRESH, SPERR} {
		for nd := 1; nd <= 4; nd++ {
			if !seen[key{alg.String(), nd, false}] {
				t.Errorf("no golden for %v %dD", alg, nd)
			}
			if alg.SupportsQP() && !seen[key{alg.String(), nd, true}] {
				t.Errorf("no QP golden for %v %dD", alg, nd)
			}
		}
	}
	if !chunked {
		t.Error("no chunked golden stream")
	}
	if !v1 {
		t.Error("no v1 golden stream")
	}
	for _, alg := range []Algorithm{SZ3, QoZ, HPEZ, MGARD} {
		if !rice[alg.String()] {
			t.Errorf("no rice-entropy golden for %v", alg)
		}
	}
	if !auto {
		t.Error("no auto-entropy golden stream")
	}
	for _, lc := range []string{"flate", "lz", "huffman", "auto"} {
		if !backends[lc] {
			t.Errorf("no golden stream for lossless back-end %q", lc)
		}
	}
	for _, tag := range []lossless.Codec{lossless.Flate, lossless.LZ, lossless.Sharded, lossless.Huffman} {
		if !tags[tag] {
			t.Errorf("no golden stream with lossless tag %d (%v)", tag, tag)
		}
	}
	if !autoSharded {
		t.Error("no golden stream pins the sharded lossless container as LosslessAuto writes it")
	}
	for _, nd := range []int{3, 4} {
		if !lorenzo[nd] {
			t.Errorf("no %dD SZ3 golden stream in Lorenzo mode", nd)
		}
	}
	if !lorenzoQP {
		t.Error("no SZ3 golden stream in Lorenzo mode keeps its QP block")
	}
}

// losslessTag reads the lossless codec tag that opens the payload of a
// plain golden stream.
func losslessTag(t *testing.T, file string) lossless.Codec {
	t.Helper()
	stream, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(stream, true)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return lossless.Codec(h.payload[0])
}

// sz3Mode reads the predictor mode byte that opens the payload of a plain
// SZ3 golden stream, and whether the stream's QP block is on.
func sz3Mode(t *testing.T, file string) (sz3.Mode, bool) {
	t.Helper()
	stream, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(stream, true)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	r, err := core.DecodeStream(h.payload, h.dims, 1, nil)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	// Mode, interpolation kind, ndims and the direction order precede the
	// QP block.
	hdr, err := r.Bytes(3+len(h.dims), "sz3 header")
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if err := r.DecodeQP(); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return sz3.Mode(hdr[0]), r.QP.Enabled()
}

// TestGoldenIntegrityTamper flips one payload byte in each v2 golden
// stream and requires ErrIntegrity before any decode work happens.
func TestGoldenIntegrityTamper(t *testing.T) {
	for _, e := range loadGoldenManifest(t) {
		if e.V1 {
			continue
		}
		stream, err := os.ReadFile(filepath.Join("testdata", "golden", e.File))
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), stream...)
		bad[len(bad)/2] ^= 0x40
		if _, err = Decompress(bad); err == nil {
			t.Fatalf("%s: tampered stream decoded", e.Name)
		}
	}
}
