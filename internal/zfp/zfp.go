// Package zfp is a from-scratch Go port of the ZFP fixed-accuracy
// compression algorithm (Lindstrom 2014), the first transform-based
// comparator in the paper's Table IV.
//
// The pipeline follows the reference design: data is partitioned into 4^3
// blocks; each block is converted to a block-floating-point fixed-point
// representation under its largest exponent, decorrelated with ZFP's
// exactly-invertible integer lifting transform along each dimension,
// mapped to negabinary, reordered by total sequency, and entropy-coded
// bit plane by bit plane with the group-testing (unary run-length) scheme
// of the reference encoder. Fixed-accuracy mode encodes just enough planes
// to honor the absolute error tolerance.
package zfp

import (
	"encoding/binary"
	"fmt"
	"math"

	"scdc/internal/bitstream"
	"scdc/internal/grid"
	"scdc/internal/verdict"
)

const (
	blockEdge = 4
	blockLen  = blockEdge * blockEdge * blockEdge // 64
	intPrec   = 62                                // fixed-point precision (bits)
	nbMask    = 0xaaaaaaaaaaaaaaaa                // negabinary conversion mask
	ebBits    = 12                                // biased exponent width
	ebBias    = 2047
)

// Options configures compression.
type Options struct {
	// Tolerance is the absolute error tolerance (fixed-accuracy mode).
	Tolerance float64
}

// Compress compresses field f in fixed-accuracy mode.
func Compress(f *grid.Field, opts Options) ([]byte, error) {
	if !(opts.Tolerance > 0) || math.IsInf(opts.Tolerance, 0) {
		return nil, fmt.Errorf("%w: zfp: tolerance must be positive and finite", verdict.ErrBadOptions)
	}
	nx, ny, nz := grid.Collapse3(f.Dims())

	w := bitstream.NewWriter(f.Len())
	minexp := int(math.Floor(math.Log2(opts.Tolerance)))

	var block [blockLen]float64
	for x0 := 0; x0 < nx; x0 += blockEdge {
		for y0 := 0; y0 < ny; y0 += blockEdge {
			for z0 := 0; z0 < nz; z0 += blockEdge {
				gatherBlock(f.Data, nx, ny, nz, x0, y0, z0, &block)
				encodeBlock(w, &block, minexp)
			}
		}
	}
	body := w.Bytes()

	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(opts.Tolerance))
	return append(hdr, body...), nil
}

// Decompress reconstructs a field with the given dims.
func Decompress(payload []byte, dims []int) (*grid.Field, error) {
	if _, err := grid.CheckDims(dims); err != nil {
		return nil, err
	}
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: zfp: short header", verdict.ErrCorrupt)
	}
	tol := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("%w: zfp: bad tolerance", verdict.ErrCorrupt)
	}
	r := bitstream.NewReader(payload[8:])
	minexp := int(math.Floor(math.Log2(tol)))

	out, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	nx, ny, nz := grid.Collapse3(dims)

	var block [blockLen]float64
	for x0 := 0; x0 < nx; x0 += blockEdge {
		for y0 := 0; y0 < ny; y0 += blockEdge {
			for z0 := 0; z0 < nz; z0 += blockEdge {
				if err := decodeBlock(r, &block, minexp); err != nil {
					return nil, err
				}
				scatterBlock(out.Data, nx, ny, nz, x0, y0, z0, &block)
			}
		}
	}
	return out, nil
}

// gatherBlock extracts a 4^3 block, padding out-of-range positions by
// clamping to the nearest valid sample (ZFP's pad-by-replication).
func gatherBlock(data []float64, nx, ny, nz, x0, y0, z0 int, blk *[blockLen]float64) {
	k := 0
	for dx := 0; dx < blockEdge; dx++ {
		x := min(x0+dx, nx-1)
		for dy := 0; dy < blockEdge; dy++ {
			y := min(y0+dy, ny-1)
			for dz := 0; dz < blockEdge; dz++ {
				z := min(z0+dz, nz-1)
				blk[k] = data[(x*ny+y)*nz+z]
				k++
			}
		}
	}
}

func scatterBlock(data []float64, nx, ny, nz, x0, y0, z0 int, blk *[blockLen]float64) {
	k := 0
	for dx := 0; dx < blockEdge; dx++ {
		for dy := 0; dy < blockEdge; dy++ {
			for dz := 0; dz < blockEdge; dz++ {
				x, y, z := x0+dx, y0+dy, z0+dz
				if x < nx && y < ny && z < nz {
					data[(x*ny+y)*nz+z] = blk[k]
				}
				k++
			}
		}
	}
}
