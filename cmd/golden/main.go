// Command golden maintains the golden-stream corpus under
// testdata/golden/: one small compressed stream per algorithm × QP mode ×
// dimensionality (1D–4D), plus a chunked container and a legacy v1
// (footer-less) stream. The manifest records the SHA-256 of both the
// stream bytes and the decoded samples, so any unintentional format or
// codec change fails golden_test.go loudly.
//
// Some pins were written by encoders that no longer exist (decodeOnly).
// Their committed files and manifest entries are carried through verify
// and -update unchanged, after a check that they still decode to the
// pinned samples.
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
	"slices"
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
	// Entropy names the non-default entropy coder or index layout of a
	// decode-only pin ("rice", "auto", "sharded"); empty for the Huffman
	// streams so their manifest lines are unchanged.
	Entropy string `json:"entropy,omitempty"`
	// Lossless names the non-default lossless back-end of a decode-only
	// pin ("auto", "flate", "lz", "huffman"); empty for the default
	// DEFLATE streams so their manifest lines are unchanged.
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
// lossless input past one 64 KB flate segment without a huge corpus
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

// synthSmooth is synth without its ripple: at a loose bound nearly
// every quantization index is the same symbol.
func synthSmooth(dims []int) []float64 {
	data := synth(dims) // for its size
	for i := range data {
		x := float64(i)
		data[i] = math.Sin(x/97) + x/(512+x)
	}
	return data
}

// synthSpiky adds +100 to every 499th point of the smooth synth field.
// At the corpus error bound that is far outside the quantizer's reach,
// so each spike, and the points predicted from it, become literals.
func synthSpiky(dims []int) []float64 {
	data := synth(dims)
	for i := 249; i < len(data); i += 499 {
		data[i] += 100
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

// decodeOnly names the pins whose encoders are gone: the forced rice and
// auto-picked entropy coders (index sub-format 0x00 0x02), the sharded
// index sub-format (0x00 0x01), the forced flate, LZ and Huffman lossless
// options, the forced sharded-flate container, the lossless Auto option
// (its plain and sharded streams), and the flate6 copies.
var decodeOnly = append([]string{
	"sz3_3d_qpon_rice",
	"qoz_3d_qpon_rice",
	"hpez_3d_qpon_rice",
	"mgard_3d_qpon_rice",
	"sz3_3d_qpon_auto",
	"sz3_3d_qpon_lossless_flate",
	"sz3_3d_qpon_lossless_lz",
	"sz3_3d_qpon_lossless_huffman",
	"sz3_3d_qpon_lossless_sharded",
	"sz3_3d_qpon_lossless_auto",
	"sz3_3d_qpon_lossless_auto_sharded",
	"sz3_3d_qpon_sharded",
}, flate6...)

// flate6 names, with the flate6Suffix, the streams of the pins whose tag-1
// bodies and flate shards compress/flate's level-6 writer wrote, before
// the in-package DEFLATE writer: every pin with a lossless stage as it
// stood then. They are the bodies the inflater must keep reading.
var flate6 = func() []string {
	var names []string
	for _, alg := range []string{"sz3", "qoz", "hpez", "mgard", "tthresh", "sperr"} {
		for nd := 1; nd <= 4; nd++ {
			names = append(names, fmt.Sprintf("%s_%dd_qpoff", alg, nd))
			if alg != "tthresh" && alg != "sperr" {
				names = append(names, fmt.Sprintf("%s_%dd_qpon", alg, nd))
			}
		}
	}
	names = append(names, "sz3_3d_qpon_lossless_auto", "chunked_sz3_3d_qpon", "v1_sz3_3d_qpoff",
		"sz3_3d_qpon_lorenzo", "sz3_3d_qpon_lossless_auto_sharded", "sz3_4d_qpoff_lorenzo",
		"sz3_3d_qpoff_lorenzo_spiky", "sz3_4d_qpon_lorenzo", "sz3_1d_qpon_runs", "hpez_1d_qpon_runs",
		"mgard_3d_qpoff_noisy")
	for i := range names {
		names[i] += flate6Suffix
	}
	return names
}()

const flate6Suffix = "_flate6"

// committed returns the decode-only entries of the corpus manifest in dir
// and their streams, both by name, after checking that each stream still
// decodes to the samples its entry pins.
func committed(dir string) (map[string]Entry, map[string][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, err
	}
	var all []Entry
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, nil, fmt.Errorf("manifest.json: %w", err)
	}
	kept, streams := make(map[string]Entry), make(map[string][]byte)
	for _, e := range all {
		if slices.Contains(decodeOnly, e.Name) {
			kept[e.Name] = e
		}
	}
	for _, name := range decodeOnly {
		e := kept[name]
		stream, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, nil, fmt.Errorf("decode-only pin %s: %w", name, err)
		}
		res, err := scdc.Decompress(stream)
		if err != nil || shaHex(stream) != e.StreamSHA256 || shaHex(decodedBytes(res.Data)) != e.DecodedSHA256 {
			return nil, nil, fmt.Errorf("decode-only pin %s no longer matches its manifest entry (%v)", name, err)
		}
		streams[name] = stream
	}
	return kept, streams, nil
}

// build compresses every corpus entry and returns entries with hashes
// filled in, paired with the stream bytes keyed by file name. The
// decode-only pins are carried from the committed corpus in dir.
func build(dir string) ([]Entry, map[string][]byte, error) {
	kept, keptStreams, err := committed(dir)
	if err != nil {
		return nil, nil, err
	}
	var entries []Entry
	streams := make(map[string][]byte)
	keep := func(name string) {
		entries = append(entries, kept[name])
		streams[kept[name].File] = keptStreams[name]
	}
	// add decodes a stream written with opts and records it under name;
	// the first failure sticks in err and turns later calls into no-ops.
	add := func(name string, dims []int, opts scdc.Options, stream []byte, chunked, v1 bool) {
		if err != nil {
			return
		}
		res, derr := scdc.Decompress(stream)
		if derr != nil {
			err = fmt.Errorf("%s: decode: %w", name, derr)
			return
		}
		e := Entry{
			Name: name, File: name + ".scdc",
			Algorithm: opts.Algorithm.String(), Dims: dims, ErrorBound: opts.ErrorBound,
			QP: opts.QP.Mode != scdc.QPOff, Chunked: chunked, V1: v1,
			StreamSHA256:  shaHex(stream),
			DecodedSHA256: shaHex(decodedBytes(res.Data)),
		}
		entries = append(entries, e)
		streams[e.File] = stream
	}
	// pin compresses data with opts and adds the stream.
	pin := func(name string, dims []int, data []float64, opts scdc.Options) {
		stream, cerr := scdc.Compress(data, dims, opts)
		if cerr != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, cerr)
		}
		add(name, dims, opts, stream, false, false)
	}

	const eb = 1e-3
	qp := scdc.DefaultQP()
	algs := []scdc.Algorithm{scdc.SZ3, scdc.QoZ, scdc.HPEZ, scdc.MGARD, scdc.ZFP, scdc.TTHRESH, scdc.SPERR}
	for _, alg := range algs {
		for _, dims := range dimSets {
			name := fmt.Sprintf("%s_%dd_", strings.ToLower(alg.String()), len(dims))
			pin(name+"qpoff", dims, synth(dims), scdc.Options{Algorithm: alg, ErrorBound: eb})
			if alg.SupportsQP() {
				pin(name+"qpon", dims, synth(dims), scdc.Options{Algorithm: alg, ErrorBound: eb, QP: qp})
			}
		}
	}

	// The decode-only entropy-coder streams (sub-format 0x00 0x02): one
	// forced-rice stream per QP-capable algorithm in 3D, plus the SZ3
	// stream the auto coder pick wrote.
	for _, alg := range algs[:4] {
		keep(strings.ToLower(alg.String()) + "_3d_qpon_rice")
	}
	keep("sz3_3d_qpon_auto")

	// The decode-only lossless back-end streams on the standard 3D field,
	// where small entropy payloads took the plain single-body format: the
	// forced flate (tag 1), LZ (tag 2) and Huffman (tag 7) pins, and the
	// Auto option's pick (tag 1). Then the forced sharded-flate container
	// on a noisy field whose entropy payload crosses the 64KB threshold,
	// pinning tag 4's shard directory and per-shard bodies byte for byte.
	cube := []int{8, 8, 8}
	keep("sz3_3d_qpon_lossless_flate")
	keep("sz3_3d_qpon_lossless_lz")
	keep("sz3_3d_qpon_lossless_huffman")
	keep("sz3_3d_qpon_lossless_auto")
	keep("sz3_3d_qpon_lossless_sharded")

	// Chunked container: SZ3+QP over a 3D field split into 4-plane chunks.
	opts := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: qp}
	stream, cerr := scdc.CompressChunked(synth(cube), cube, opts, 4)
	if cerr != nil {
		return nil, nil, fmt.Errorf("chunked: %w", cerr)
	}
	add("chunked_sz3_3d_qpon", cube, opts, stream, true, false)

	// Legacy v1 stream: the v2 golden with its footer stripped and the
	// version byte rewound, which Decompress must keep accepting.
	opts = scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb}
	stream, cerr = scdc.Compress(synth(cube), cube, opts)
	if cerr != nil {
		return nil, nil, fmt.Errorf("v1: %w", cerr)
	}
	v1 := append([]byte(nil), stream[:len(stream)-4]...)
	v1[4] = 1
	add("v1_sz3_3d_qpoff", cube, opts, v1, false, true)

	// SZ3's Lorenzo mode: the smallest synth cube that reaches the mode
	// estimate's 4096-point floor, where it picks Lorenzo over
	// interpolation. QP runs over the scan but does not pay here, so the
	// stream drops it.
	lorenzo := []int{16, 16, 16}
	pin("sz3_3d_qpon_lorenzo", lorenzo, synth(lorenzo), scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb, QP: qp})

	// The decode-only sharded container as the Auto option wrote it on
	// the noisy field of the sharded-flate pin: a flate shard and a
	// stored one.
	keep("sz3_3d_qpon_lossless_auto_sharded")

	// SZ3's Lorenzo mode with QP off, on the two paths the scan takes
	// besides a single smooth block: a 4D synth field, which the mode
	// estimate also sends to Lorenzo and the scan splits into independent
	// 3D blocks, and the spiky synth cube, whose literals the scan stores.
	lorenzo4 := []int{2, 12, 16, 16}
	sz3Off := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: eb}
	pin("sz3_4d_qpoff_lorenzo", lorenzo4, synth(lorenzo4), sz3Off)
	pin("sz3_3d_qpoff_lorenzo_spiky", lorenzo, synthSpiky(lorenzo), sz3Off)

	// SZ3's Lorenzo mode where QP pays and the stream keeps it: the 4D
	// synth field at a bound of 1e-4, so the QP sweep also spans the
	// independent 3D blocks.
	pin("sz3_4d_qpon_lorenzo", lorenzo4, synth(lorenzo4), scdc.Options{Algorithm: scdc.SZ3, ErrorBound: 1e-4, QP: qp})

	// The run-coded index sub-format (0x00 0x03): on a smooth line at a
	// bound of about 1e-2 of its range, SZ3's indices and those of the
	// lattice engine HPEZ pile onto one symbol.
	line := []int{512}
	runs := scdc.Options{Algorithm: scdc.SZ3, ErrorBound: 2e-2, QP: qp}
	pin("sz3_1d_qpon_runs", line, synthSmooth(line), runs)
	runs.Algorithm = scdc.HPEZ
	pin("hpez_1d_qpon_runs", line, synthSmooth(line), runs)

	// Tag 1 with a stored stretch: the smallest noisy cube whose MGARD
	// plaintext passes one 64 KB flate segment. Its first half carries
	// the code table and pays for DEFLATE; its second half is Huffman
	// body, which the encoder writes as a stored block.
	stored := []int{30, 30, 30}
	pin("mgard_3d_qpoff_noisy", stored, synthNoisy(stored), scdc.Options{Algorithm: scdc.MGARD, ErrorBound: eb})

	// The decode-only sharded index sub-format (0x00 0x01): SZ3+QP on the
	// 16x24x24 synth field, written at Shards 2 as two Huffman shards
	// under one code table.
	keep("sz3_3d_qpon_sharded")

	for _, name := range flate6 {
		keep(name)
	}
	return entries, streams, err
}

func run(dir string, update bool) error {
	entries, streams, err := build(dir)
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
