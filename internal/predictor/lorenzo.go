// Package predictor implements the Lorenzo family of predictors
// (Ibarria et al. 2003), used in two roles:
//
//   - as the data-domain fallback predictor that SZ3 switches to at small
//     error bounds (paper Section VI-B), and
//   - as the quantization-index predictor at the heart of the paper's QP
//     method (Section V-C explores its 1D/2D/3D variants).
//
// Lorenzo prediction assumes values in a local neighborhood follow a
// low-order multivariate polynomial; the prediction is an alternating sum
// of previously processed neighbors.
package predictor

// Lorenzo2D predicts from the left (a), top (b) and top-left (ab)
// neighbors: p = a + b - ab.
func Lorenzo2D(a, b, ab float64) float64 { return a + b - ab }

// Lorenzo3D predicts from the seven processed corners of the unit cube:
// p = a + b + c - ab - ac - bc + abc.
func Lorenzo3D(a, b, c, ab, ac, bc, abc float64) float64 {
	return a + b + c - ab - ac - bc + abc
}

// Field3 provides 3D Lorenzo prediction over a row-major field laid out
// with strides (sy*sz, sz, 1) — i.e. dims [nx][ny][nz] with z fastest.
// Out-of-range neighbors (first plane/row/column) read as zero, the
// standard SZ convention.
type Field3 struct {
	Data       []float64
	Nx, Ny, Nz int
}

// Predict returns the 3D Lorenzo prediction for point (i, j, k) using the
// current contents of Data (which during compression holds decompressed
// values for already-processed points).
func (f Field3) Predict(i, j, k int) float64 {
	sz := f.Nz
	sy := f.Ny * f.Nz
	at := func(x, y, z int) float64 {
		if x < 0 || y < 0 || z < 0 {
			return 0
		}
		return f.Data[x*sy+y*sz+z]
	}
	return Lorenzo3D(
		at(i-1, j, k), at(i, j-1, k), at(i, j, k-1),
		at(i-1, j-1, k), at(i-1, j, k-1), at(i, j-1, k-1),
		at(i-1, j-1, k-1),
	)
}
