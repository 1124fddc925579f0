// Package sperr is a SPERR-like wavelet compressor (Li, Lindstrom, Clyne,
// IPDPS 2023), the strongest transform-based comparator in the paper's
// Table IV.
//
// Pipeline: the field is edge-padded so every axis supports a dyadic
// decomposition, transformed with a multi-level separable CDF 9/7 wavelet,
// uniformly quantized, entropy coded (Huffman + DEFLATE), and finally
// guarded by SPERR's signature outlier-correction pass: the compressor
// reconstructs its own output and stores exact replacements for any sample
// whose error would exceed the bound, making the codec error-bounded
// despite the wavelet's unbounded L-infinity synthesis gain.
//
// The entropy stage is a from-scratch SPECK set-partitioning coder
// (speck.go) chosen adaptively against a Huffman fallback per stream;
// relative to real SPERR only the explicit per-subband quantization (in
// place of fully embedded bit-plane truncation) differs, as documented in
// DESIGN.md.
package sperr

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/grid"
	"scdc/internal/huffman"
	"scdc/internal/lossless"
	"scdc/internal/transform"
	"scdc/internal/verdict"
)

const maxWaveLevels = 4

// Options configures compression.
type Options struct {
	// ErrorBound is the absolute error bound (required, > 0).
	ErrorBound float64
	// Lossless selects the final back-end. Default Flate.
	Lossless lossless.Codec
}

// DefaultOptions returns the default configuration.
func DefaultOptions(eb float64) Options {
	return Options{ErrorBound: eb, Lossless: lossless.Flate}
}

// plan3 captures the padded geometry.
type plan3 struct {
	nx, ny, nz int // original (collapsed to 3D)
	px, py, pz int // padded
	levels     int
}

func makePlan(dims []int) plan3 {
	var p plan3
	p.nx, p.ny, p.nz = grid.Collapse3(dims)
	// Levels: the deepest dyadic decomposition every non-trivial axis can
	// support after padding to a multiple of 2^levels (band >= 8).
	p.levels = maxWaveLevels
	for _, n := range []int{p.nx, p.ny, p.nz} {
		if n == 1 {
			continue
		}
		// Deepest l such that the low band after l levels keeps >= 8
		// samples on the padded extent.
		l := 0
		for l < maxWaveLevels && padExt(n, l+1)>>uint(l+1) >= 8 {
			l++
		}
		if l < p.levels {
			p.levels = l
		}
	}
	p.px, p.py, p.pz = padExt(p.nx, p.levels), padExt(p.ny, p.levels), padExt(p.nz, p.levels)
	return p
}

// padExt rounds n up to a multiple of 2^levels (extent-1 axes stay 1).
func padExt(n, levels int) int {
	if n == 1 {
		return 1
	}
	m := 1 << uint(levels)
	return (n + m - 1) / m * m
}

// Compress compresses field f under the given options.
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if !(opts.ErrorBound > 0) || math.IsInf(opts.ErrorBound, 0) {
		return nil, fmt.Errorf("%w: sperr: error bound must be positive and finite", verdict.ErrBadOptions)
	}
	if opts.Lossless == 0 {
		opts.Lossless = lossless.Flate
	}
	pl := makePlan(f.Dims())
	padded := grid.PadEdge(f.Data, [3]int{pl.nx, pl.ny, pl.nz}, [3]int{pl.px, pl.py, pl.pz})

	forward(padded, pl)

	// Quantize coefficients with per-subband rate allocation: a detail
	// coefficient introduced at transform level b synthesizes through b
	// upsampling stages, so its pointwise footprint shrinks roughly as
	// 2^(-b*d/2); coarser bands therefore tolerate proportionally larger
	// quanta for the same pointwise error. This is the rate allocation
	// SPECK's bit-plane significance coding performs implicitly. The
	// outlier pass below enforces the bound exactly regardless.
	quanta := bandQuanta(opts.ErrorBound, pl.levels)
	q := make([]int32, len(padded))
	quantizeBands(padded, q, pl, quanta)

	// Reconstruct to find outliers.
	rec := make([]float64, len(padded))
	dequantizeBands(q, rec, pl, quanta)
	inverse(rec, pl)

	// Outliers are stored as quantized corrections (delta index + residual
	// in eb/2 steps), guaranteeing |err| <= eb at a few bytes each.
	corrQ := opts.ErrorBound / 2
	var outIdx []int
	var outCorr []int64
	visitValid(pl, func(src, dst int) {
		err := f.Data[src] - rec[dst]
		if math.Abs(err) > opts.ErrorBound {
			c := int64(math.Round(err / corrQ))
			outIdx = append(outIdx, src)
			outCorr = append(outCorr, c)
		}
	})

	// Entropy stage: SPECK set-partitioning when the coefficient field is
	// sparse (its group testing prunes whole zero cubes), Huffman when
	// dense (SPECK degenerates to per-coefficient bit planes and its
	// octree walk is much slower). The sparsity test is one cheap pass,
	// so only one coder ever runs.
	nz := 0
	for _, v := range q {
		if v != 0 {
			nz++
		}
	}
	var coder byte
	var body []byte
	if nz*5 < len(q)*3 { // < 60% nonzero
		coder, body = 1, speckEncode(q, pl.px, pl.py, pl.pz)
	} else {
		coder, body = 0, huffman.Encode(q)
	}
	buf := make([]byte, 0, len(body)+len(outIdx)*5+64)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(opts.ErrorBound))
	buf = binary.AppendUvarint(buf, uint64(pl.levels))
	buf = append(buf, coder)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	buf = binary.AppendUvarint(buf, uint64(len(outIdx)))
	prev := 0
	for i, idx := range outIdx {
		buf = binary.AppendUvarint(buf, uint64(idx-prev))
		prev = idx
		buf = binary.AppendVarint(buf, outCorr[i])
	}
	return lossless.Compress(opts.Lossless, buf)
}

// bandQuanta allocates the error budget across subbands. The measured
// worst-case pointwise synthesis gain of a unit coefficient grows mildly
// toward the coarse bands (~0.75 for the finest details up to ~1.8 for
// the final low band), so each band gets q_b such that (q_b/2)*gain_b is
// an equal share of the bound, with a 1.5x slack whose rare violations the
// outlier pass repairs at ~3 bytes each.
func bandQuanta(eb float64, levels int) []float64 {
	quanta := make([]float64, levels+1)
	const slack = 1.5
	for b := 0; b <= levels; b++ {
		g := 0.75 * math.Pow(1.12, float64(b))
		if b == levels {
			g = 1.8
		}
		quanta[b] = 2 * eb * slack / (float64(levels+1) * g)
	}
	return quanta
}

// bandLevel returns the band of the padded-volume position: 0 for details
// introduced at the first transform level, up to levels for the final low
// band.
func bandLevel(x, y, z int, pl plan3) int {
	for b := 1; b <= pl.levels; b++ {
		if x >= half2(pl.px, b) || y >= half2(pl.py, b) || z >= half2(pl.pz, b) {
			return b - 1
		}
	}
	return pl.levels
}

// half2 halves n b times (extent-1 axes stay 1).
func half2(n, b int) int {
	for i := 0; i < b; i++ {
		n = half(n)
	}
	return n
}

// quantizeBands rounds each coefficient by its band quantum.
func quantizeBands(c []float64, q []int32, pl plan3, quanta []float64) {
	for x := 0; x < pl.px; x++ {
		for y := 0; y < pl.py; y++ {
			row := (x*pl.py + y) * pl.pz
			for z := 0; z < pl.pz; z++ {
				q0 := quanta[bandLevel(x, y, z, pl)]
				v := math.Round(c[row+z] / q0)
				if v > 1<<30 || v < -(1<<30) || math.IsNaN(v) {
					v = 0 // absorbed by outlier correction
				}
				q[row+z] = int32(v)
			}
		}
	}
}

// dequantizeBands reverses quantizeBands.
func dequantizeBands(q []int32, c []float64, pl plan3, quanta []float64) {
	for x := 0; x < pl.px; x++ {
		for y := 0; y < pl.py; y++ {
			row := (x*pl.py + y) * pl.pz
			for z := 0; z < pl.pz; z++ {
				c[row+z] = float64(q[row+z]) * quanta[bandLevel(x, y, z, pl)]
			}
		}
	}
}

// Decompress reconstructs a field with the given dims.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	n, err := grid.CheckDims(dims)
	if err != nil {
		return nil, err
	}
	buf, err := lossless.DecompressLimit(payload, lossless.PayloadLimit(n), 1)
	if err != nil {
		return nil, err
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: sperr: short header", verdict.ErrCorrupt)
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("%w: sperr: bad error bound", verdict.ErrCorrupt)
	}
	levels, k := binary.Uvarint(buf)
	if k <= 0 || levels > maxWaveLevels {
		return nil, fmt.Errorf("%w: sperr: bad levels", verdict.ErrCorrupt)
	}
	buf = buf[k:]
	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: sperr: missing coder flag", verdict.ErrCorrupt)
	}
	coder := buf[0]
	buf = buf[1:]
	hl, k := binary.Uvarint(buf)
	if k <= 0 || hl > uint64(len(buf)-k) {
		return nil, fmt.Errorf("%w: sperr: bad body length", verdict.ErrCorrupt)
	}
	buf = buf[k:]
	body := buf[:hl]
	buf = buf[hl:]

	pl := makePlan(dims)
	if pl.levels != int(levels) {
		return nil, fmt.Errorf("%w: sperr: level mismatch (%d vs %d)", verdict.ErrCorrupt, pl.levels, levels)
	}
	var q []int32
	switch coder {
	case 0:
		q, err = huffman.Decode(body)
	case 1:
		q, err = speckDecode(body, pl.px, pl.py, pl.pz)
	default:
		return nil, fmt.Errorf("%w: sperr: unknown coder %d", verdict.ErrCorrupt, coder)
	}
	if err != nil {
		return nil, err
	}
	if len(q) != pl.px*pl.py*pl.pz {
		return nil, fmt.Errorf("%w: sperr: %d coefficients for padded size %d", verdict.ErrCorrupt, len(q), pl.px*pl.py*pl.pz)
	}

	rec := make([]float64, len(q))
	dequantizeBands(q, rec, pl, bandQuanta(eb, pl.levels))
	inverse(rec, pl)

	out, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	visitValid(pl, func(src, dst int) {
		out.Data[src] = rec[dst]
	})

	no, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, fmt.Errorf("%w: sperr: bad outlier count", verdict.ErrCorrupt)
	}
	buf = buf[k:]
	corrQ := eb / 2
	prev := 0
	for i := uint64(0); i < no; i++ {
		d, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("%w: sperr: truncated outlier", verdict.ErrCorrupt)
		}
		buf = buf[k:]
		c, k := binary.Varint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("%w: sperr: truncated outlier correction", verdict.ErrCorrupt)
		}
		buf = buf[k:]
		idx := prev + int(d)
		prev = idx
		if idx >= n {
			return nil, fmt.Errorf("%w: sperr: outlier index %d out of range", verdict.ErrCorrupt, idx)
		}
		out.Data[idx] += float64(c) * corrQ
	}
	return out, nil
}

// visitValid maps original flat indexes (src) to padded flat indexes
// (dst).
func visitValid(pl plan3, fn func(src, dst int)) {
	for x := 0; x < pl.nx; x++ {
		for y := 0; y < pl.ny; y++ {
			srow := (x*pl.ny + y) * pl.nz
			drow := (x*pl.py + y) * pl.pz
			for z := 0; z < pl.nz; z++ {
				fn(srow+z, drow+z)
			}
		}
	}
}

// forward applies the multi-level separable CDF 9/7 transform in place on
// the padded volume.
func forward(d []float64, pl plan3) {
	ex, ey, ez := pl.px, pl.py, pl.pz
	line := make([]float64, maxInt(ex, maxInt(ey, ez)))
	for l := 0; l < pl.levels; l++ {
		waveAxes(d, pl, ex, ey, ez, line, transform.FWT97)
		ex, ey, ez = half(ex), half(ey), half(ez)
	}
}

// inverse undoes forward.
func inverse(d []float64, pl plan3) {
	// Band extents per level.
	exs := []int{pl.px}
	eys := []int{pl.py}
	ezs := []int{pl.pz}
	for l := 0; l < pl.levels; l++ {
		exs = append(exs, half(exs[l]))
		eys = append(eys, half(eys[l]))
		ezs = append(ezs, half(ezs[l]))
	}
	line := make([]float64, maxInt(pl.px, maxInt(pl.py, pl.pz)))
	for l := pl.levels - 1; l >= 0; l-- {
		waveAxes(d, pl, exs[l], eys[l], ezs[l], line, transform.IWT97)
	}
}

// waveAxes applies fn along each non-trivial axis of the (ex, ey, ez)
// low-band sub-volume.
func waveAxes(d []float64, pl plan3, ex, ey, ez int, line []float64, fn func([]float64)) {
	// Along z.
	if ez > 1 {
		for x := 0; x < ex; x++ {
			for y := 0; y < ey; y++ {
				row := (x*pl.py + y) * pl.pz
				fn(d[row : row+ez])
			}
		}
	}
	// Along y.
	if ey > 1 {
		for x := 0; x < ex; x++ {
			for z := 0; z < ez; z++ {
				base := x*pl.py*pl.pz + z
				for y := 0; y < ey; y++ {
					line[y] = d[base+y*pl.pz]
				}
				fn(line[:ey])
				for y := 0; y < ey; y++ {
					d[base+y*pl.pz] = line[y]
				}
			}
		}
	}
	// Along x.
	if ex > 1 {
		for y := 0; y < ey; y++ {
			for z := 0; z < ez; z++ {
				base := y*pl.pz + z
				for x := 0; x < ex; x++ {
					line[x] = d[base+x*pl.py*pl.pz]
				}
				fn(line[:ex])
				for x := 0; x < ex; x++ {
					d[base+x*pl.py*pl.pz] = line[x]
				}
			}
		}
	}
}

func half(n int) int {
	if n == 1 {
		return 1
	}
	return n / 2
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
