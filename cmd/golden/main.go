// Command golden maintains the golden-stream corpus under
// testdata/golden/: one small compressed stream per algorithm × QP mode ×
// dimensionality (1D–4D), plus a chunked container and a legacy v1
// (footer-less) stream. The manifest records the SHA-256 of both the
// stream bytes and the decoded samples, so any unintentional format or
// codec change fails golden_test.go loudly.
//
// Usage:
//
//	go run ./cmd/golden           # verify corpus matches the generators
//	go run ./cmd/golden -update   # regenerate streams and manifest
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"scdc"
)

// Entry is one golden stream plus everything needed to re-derive and
// verify it.
type Entry struct {
	Name       string  `json:"name"`
	File       string  `json:"file"`
	Algorithm  string  `json:"algorithm"`
	Dims       []int   `json:"dims"`
	ErrorBound float64 `json:"error_bound"`
	QP         bool    `json:"qp"`
	Chunked    bool    `json:"chunked,omitempty"`
	V1         bool    `json:"v1,omitempty"`
	// Entropy names a non-default entropy coder ("rice", "auto"); empty
	// for the legacy Huffman streams so their manifest lines are
	// unchanged.
	Entropy string `json:"entropy,omitempty"`
	// Lossless names a non-default lossless back-end ("flate", "lz",
	// "huffman", "auto"); empty for the legacy whole-buffer DEFLATE
	// streams so their manifest lines are unchanged.
	Lossless string `json:"lossless,omitempty"`
	// StreamSHA256 pins the exact compressed bytes; DecodedSHA256 pins
	// the float64 little-endian bytes Decompress must reproduce.
	StreamSHA256  string `json:"stream_sha256"`
	DecodedSHA256 string `json:"decoded_sha256"`
}

// dimSets is the 1D–4D geometry matrix. Extents are deliberately small
// (≤ a few hundred points) so the corpus stays a few KB per stream.
var dimSets = [][]int{
	{64},
	{16, 12},
	{8, 8, 8},
	{4, 6, 5, 4},
}

// synth fills a field deterministically from its linear index: a smooth
// oscillation (interpolation-friendly) with a mild incommensurate ripple
// so quantization indices are non-trivial. Independent of dims so the
// same values feed every dimensionality.
func synth(dims []int) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		x := float64(i)
		data[i] = math.Sin(x/9.7) + 0.25*math.Cos(x/2.3) + x/(512+x)
	}
	return data
}

// synthNoisy layers deterministic pseudo-noise over the smooth synth
// field, several quantization bins wide at the corpus error bound, so
// the quantization indices — and with them the entropy-stage payload —
// are near-incompressible. A modest 3D geometry then pushes the
// lossless input past the sharding threshold without a huge corpus
// file.
func synthNoisy(dims []int) []float64 {
	data := synth(dims)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range data {
		state = state*6364136223846793005 + 1442695040888963407
		// Top 20 bits as a symmetric jitter of up to ~±0.5, ~250 bins at
		// eb=1e-3.
		data[i] += (float64(state>>44) - float64(1<<19)) / float64(1<<20)
	}
	return data
}

func decodedBytes(data []float64) []byte {
	out := make([]byte, 0, 8*len(data))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func shaHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// build compresses every corpus entry and returns entries with hashes
// filled in, paired with the stream bytes keyed by file name.
func build() ([]Entry, map[string][]byte, error) {
	var entries []Entry
	streams := make(map[string][]byte)

	add := func(name string, dims []int, stream []byte, decoded []float64, alg scdc.Algorithm, eb float64, qp, chunked, v1 bool, entropy, lossless string) {
		file := name + ".scdc"
		streams[file] = stream
		entries = append(entries, Entry{
			Name: name, File: file,
			Algorithm: alg.String(), Dims: dims, ErrorBound: eb,
			QP: qp, Chunked: chunked, V1: v1, Entropy: entropy, Lossless: lossless,
			StreamSHA256:  shaHex(stream),
			DecodedSHA256: shaHex(decodedBytes(decoded)),
		})
	}

	const eb = 1e-3
	algs := []scdc.Algorithm{scdc.SZ3, scdc.QoZ, scdc.HPEZ, scdc.MGARD, scdc.ZFP, scdc.TTHRESH, scdc.SPERR}
	for _, alg := range algs {
		for _, dims := range dimSets {
			data := synth(dims)
			modes := []bool{false}
			if alg.SupportsQP() {
				modes = append(modes, true)
			}
			for _, qp := range modes {
				opts := scdc.Options{Algorithm: alg, ErrorBound: eb}
				if qp {
					opts.QP = scdc.DefaultQP()
				}
				stream, err := scdc.Compress(data, dims, opts)
				if err != nil {
					return nil, nil, fmt.Errorf("%v %dd qp=%v: %w", alg, len(dims), qp, err)
				}
				res, err := scdc.Decompress(stream)
				if err != nil {
					return nil, nil, fmt.Errorf("%v %dd qp=%v: decode: %w", alg, len(dims), qp, err)
				}
				mode := "qpoff"
				if qp {
					mode = "qpon"
				}
				name := fmt.Sprintf("%s_%dd_%s", strings.ToLower(alg.String()), len(dims), mode)
				add(name, dims, stream, res.Data, alg, eb, qp, false, false, "", "")
			}
		}
	}

	// Rice / auto entropy-coder streams (sub-format 0x00 0x02): one rice
	// stream per QP-capable algorithm in 3D, plus an auto-selected SZ3
	// stream, pinning the Golomb-Rice byte format and the coder decision.
	for _, ec := range []scdc.EntropyCoder{scdc.EntropyRice, scdc.EntropyAuto} {
		algs := []scdc.Algorithm{scdc.SZ3, scdc.QoZ, scdc.HPEZ, scdc.MGARD}
		if ec == scdc.EntropyAuto {
			algs = algs[:1]
		}
		for _, alg := range algs {
			dims := []int{8, 8, 8}
			data := synth(dims)
			opts := scdc.Options{Algorithm: alg, ErrorBound: eb, QP: scdc.DefaultQP(), Entropy: ec}
			stream, err := scdc.Compress(data, dims, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("%v entropy=%v: %w", alg, ec, err)
			}
			res, err := scdc.Decompress(stream)
			if err != nil {
				return nil, nil, fmt.Errorf("%v entropy=%v: decode: %w", alg, ec, err)
			}
			name := fmt.Sprintf("%s_3d_qpon_%v", strings.ToLower(alg.String()), ec)
			add(name, dims, stream, res.Data, alg, eb, true, false, false, ec.String(), "")
		}
	}

	// Lossless back-end streams: one per selectable codec on the standard
	// 3D field (small entropy payloads take the plain single-body format,
	// pinning each codec's tag and body bytes), plus one noisy field
	// whose entropy payload crosses the 64KB threshold so the sharded
	// container itself — tag 4, shard directory, per-shard bodies — is
	// pinned byte for byte.
	for _, lc := range []scdc.LosslessCodec{scdc.LosslessFlate, scdc.LosslessLZ, scdc.LosslessHuffman, scdc.LosslessAuto} {
		dims := []int{8, 8, 8}
		data := synth(dims)
		opts := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: scdc.DefaultQP(), Lossless: lc}
		stream, err := scdc.Compress(data, dims, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("lossless=%v: %w", lc, err)
		}
		res, err := scdc.Decompress(stream)
		if err != nil {
			return nil, nil, fmt.Errorf("lossless=%v: decode: %w", lc, err)
		}
		name := "sz3_3d_qpon_lossless_" + lc.String()
		add(name, dims, stream, res.Data, scdc.SZ3, eb, true, false, false, "", lc.String())
	}
	{
		dims := []int{40, 40, 48}
		data := synthNoisy(dims)
		opts := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: scdc.DefaultQP(), Lossless: scdc.LosslessFlate}
		stream, err := scdc.Compress(data, dims, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("sharded lossless: %w", err)
		}
		res, err := scdc.Decompress(stream)
		if err != nil {
			return nil, nil, fmt.Errorf("sharded lossless: decode: %w", err)
		}
		add("sz3_3d_qpon_lossless_sharded", dims, stream, res.Data, scdc.SZ3, eb, true, false, false, "", "flate")
	}

	// Chunked container: SZ3+QP over a 3D field split into 4-plane chunks.
	{
		dims := []int{8, 8, 8}
		data := synth(dims)
		opts := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: scdc.DefaultQP()}
		stream, err := scdc.CompressChunked(data, dims, opts, 2, 4)
		if err != nil {
			return nil, nil, fmt.Errorf("chunked: %w", err)
		}
		res, err := scdc.DecompressParallel(stream, 2)
		if err != nil {
			return nil, nil, fmt.Errorf("chunked decode: %w", err)
		}
		add("chunked_sz3_3d_qpon", dims, stream, res.Data, scdc.SZ3, eb, true, true, false, "", "")
	}

	// Legacy v1 stream: the v2 golden with its footer stripped and the
	// version byte rewound, which Decompress must keep accepting.
	{
		dims := []int{8, 8, 8}
		data := synth(dims)
		stream, err := scdc.Compress(data, dims, scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb})
		if err != nil {
			return nil, nil, fmt.Errorf("v1: %w", err)
		}
		v1 := append([]byte(nil), stream[:len(stream)-4]...)
		v1[4] = 1
		res, err := scdc.Decompress(v1)
		if err != nil {
			return nil, nil, fmt.Errorf("v1 decode: %w", err)
		}
		add("v1_sz3_3d_qpoff", dims, v1, res.Data, scdc.SZ3, eb, false, false, true, "", "")
	}

	// SZ3's Lorenzo mode: the smallest synth cube that reaches the mode
	// estimate's 4096-point floor, where it picks Lorenzo over
	// interpolation. QP is asked for but not run: the paper's QP covers
	// interpolation mode only.
	{
		dims := []int{16, 16, 16}
		data := synth(dims)
		stream, err := scdc.Compress(data, dims, scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: scdc.DefaultQP()})
		if err != nil {
			return nil, nil, fmt.Errorf("lorenzo: %w", err)
		}
		res, err := scdc.Decompress(stream)
		if err != nil {
			return nil, nil, fmt.Errorf("lorenzo decode: %w", err)
		}
		add("sz3_3d_qpon_lorenzo", dims, stream, res.Data, scdc.SZ3, eb, true, false, false, "", "")
	}

	return entries, streams, nil
}

func run(dir string, update bool) error {
	entries, streams, err := build()
	if err != nil {
		return err
	}
	manifest, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	manifest = append(manifest, '\n')

	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for file, stream := range streams {
			if err := os.WriteFile(filepath.Join(dir, file), stream, 0o644); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d golden streams + manifest to %s\n", len(entries), dir)
		return nil
	}

	// Verify mode: the committed corpus must match what the current code
	// generates, byte for byte.
	drift := 0
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			fmt.Printf("MISSING %s: %v\n", e.File, err)
			drift++
			continue
		}
		if !bytes.Equal(got, streams[e.File]) {
			fmt.Printf("DRIFT   %s: committed stream differs from generator output\n", e.File)
			drift++
		}
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil || !bytes.Equal(onDisk, manifest) {
		fmt.Println("DRIFT   manifest.json differs from generator output")
		drift++
	}
	if drift > 0 {
		return fmt.Errorf("%d golden entries drifted; run `go run ./cmd/golden -update` if the change is intentional", drift)
	}
	fmt.Printf("golden corpus OK: %d streams match\n", len(entries))
	return nil
}

func main() {
	update := flag.Bool("update", false, "regenerate the golden corpus")
	dir := flag.String("dir", filepath.Join("testdata", "golden"), "corpus directory")
	flag.Parse()
	if err := run(*dir, *update); err != nil {
		fmt.Fprintln(os.Stderr, "golden:", err)
		os.Exit(1)
	}
}
