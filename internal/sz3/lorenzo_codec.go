package sz3

import (
	"scdc/internal/core"
	"scdc/internal/predictor"
	"scdc/internal/quantizer"
)

// view3 normalizes 1..4-dimensional dims to (blocks, nx, ny, nz): leading
// dims collapse into independent 3D blocks, and missing dims become
// extent-1 axes. The Lorenzo scan treats each block independently, which
// matches how the paper processes the 4D RTM data (independent 3D slices).
func view3(dims []int) (blocks, nx, ny, nz int) {
	switch len(dims) {
	case 1:
		return 1, 1, 1, dims[0]
	case 2:
		return 1, 1, dims[0], dims[1]
	case 3:
		return 1, dims[0], dims[1], dims[2]
	default:
		return dims[0], dims[1], dims[2], dims[3]
	}
}

// compressLorenzo runs the 3D Lorenzo fallback pipeline on sw: scan in
// natural order, predict from the seven processed neighbors (decompressed
// values), quantize. The paper's QP is not applied in this mode (Lorenzo
// residual indices do not show the clustering effect, Section VI-B); a
// sweep with QP on implements the paper's future-work extension of QP to
// non-interpolation pipelines, protected by the adaptive fallback.
func compressLorenzo(sw *core.Sweep, dims []int, quant quantizer.Linear) {
	data, q := sw.Data, sw.Sym
	blocks, nx, ny, nz := view3(dims)
	bsz := nx * ny * nz
	for b := 0; b < blocks; b++ {
		f := predictor.Field3{Data: data[b*bsz : (b+1)*bsz], Nx: nx, Ny: ny, Nz: nz}
		idx := b * bsz
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					p := f.Predict(i, j, k)
					sym, dec, ok := quant.Quantize(data[idx], p)
					q[idx] = sym
					if !ok {
						sw.Lits = append(sw.Lits, data[idx])
					}
					data[idx] = dec
					idx++
				}
			}
		}
		sw.ForwardQP(lorenzoRegion(b*bsz, nx, ny, nz))
	}
}

// lorenzoRegion maps one scan-order block onto the kernel engine's
// geometry: contiguous row-major axes with Left/Top/Back on the three
// fastest strides, so left/top are the previous points along the two
// fastest axes and back is the previous plane. This is the "generalized
// design for compressors besides interpolation-based ones" the paper
// lists as future work (Section VII); the scan-order geometry replaces
// the level-wise plane geometry.
func lorenzoRegion(base, nx, ny, nz int) core.Region {
	return core.Region{
		Base: base,
		Ext:  [4]int{1, nx, ny, nz},
		Strd: [4]int{0, ny * nz, nz, 1},
		Left: 3, Top: 2, Back: 1,
		Level: 1,
	}
}

// decompressLorenzo reverses compressLorenzo: each block's symbols are
// recovered in place by the inverse QP sweep (region row-major order is
// exactly the scan order) before the block's reconstruction scan.
func decompressLorenzo(sw *core.Sweep, dims []int, quant quantizer.Linear) error {
	data, enc := sw.Data, sw.Sym
	blocks, nx, ny, nz := view3(dims)
	bsz := nx * ny * nz
	for b := 0; b < blocks; b++ {
		sw.InverseQP(lorenzoRegion(b*bsz, nx, ny, nz))
		f := predictor.Field3{Data: data[b*bsz : (b+1)*bsz], Nx: nx, Ny: ny, Nz: nz}
		idx := b * bsz
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					p := f.Predict(i, j, k)
					if sym := enc[idx]; sym != quantizer.Unpredictable {
						data[idx] = quant.Recover(p, sym)
					} else if v, ok := sw.Literal(); ok {
						data[idx] = v
					} else {
						return sw.Exhausted()
					}
					idx++
				}
			}
		}
	}
	return sw.Drained()
}
