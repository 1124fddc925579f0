package datagen

import (
	"math"
	"math/rand"

	"scdc/internal/grid"
)

// mode is one Fourier mode: integer frequencies per axis (cycles across
// the domain), an amplitude and a phase.
type mode struct {
	fx, fy, fz int
	amp, phase float64
}

// spectrum draws nmodes random-phase modes with isotropic wavenumbers
// log-uniform in [kmin, kmax] and amplitude ~ k^(-alpha) — a power-law
// (Kolmogorov-like for alpha=5/3+1) spectrum, the generic model for
// smooth correlated scientific fields.
func spectrum(rng *rand.Rand, nmodes int, alpha, kmin, kmax float64) []mode {
	modes := make([]mode, 0, nmodes)
	for len(modes) < nmodes {
		k := kmin * math.Pow(kmax/kmin, rng.Float64())
		// Random direction on the sphere.
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		fx := int(math.Round(k * math.Sin(theta) * math.Cos(phi)))
		fy := int(math.Round(k * math.Sin(theta) * math.Sin(phi)))
		fz := int(math.Round(k * math.Cos(theta)))
		if fx == 0 && fy == 0 && fz == 0 {
			continue
		}
		modes = append(modes, mode{
			fx: fx, fy: fy, fz: fz,
			amp:   math.Pow(k, -alpha),
			phase: 2 * math.Pi * rng.Float64(),
		})
	}
	return modes
}

// dims3of returns the field's extents as a 3D shape (leading 1s for lower
// dimensionality).
func dims3of(f *grid.Field) (nx, ny, nz int) {
	d := f.Dims()
	switch len(d) {
	case 1:
		return 1, 1, d[0]
	case 2:
		return 1, d[0], d[1]
	default:
		return d[0], d[1], d[2]
	}
}

// addSpectral accumulates scale * the mode sum into the field, evaluated
// with per-axis complex exponential tables (O(n*modes) multiplies, no
// trigonometry in the inner loop). The field is walked once: each (x, y)
// line takes its per-mode complex factor, and each point adds its modes'
// terms in mode order in a register, four points at a time so their add
// chains overlap. Each point's float64 operations and their order are
// those of one pass per mode, which the generated bits depend on.
func addSpectral(f *grid.Field, modes []mode, scale float64) {
	nx, ny, nz := dims3of(f)
	data := f.Data
	nm := len(modes)

	// Per-axis tables for all modes; z's is mode-minor, so a point reads
	// its modes' factors in a row.
	tabX := make([][]cplx, nm)
	tabY := make([][]cplx, nm)
	tabZ := make([]cplx, nz*nm)
	amp := make([]float64, nm)
	phase := make([]cplx, nm)
	for m, md := range modes {
		tabX[m] = axisTable(md.fx, nx)
		tabY[m] = axisTable(md.fy, ny)
		for z, c := range axisTable(md.fz, nz) {
			tabZ[z*nm+m] = c
		}
		amp[m] = md.amp * scale
		phase[m] = cplx{math.Cos(md.phase), math.Sin(md.phase)}
	}

	line := make([]lineTerm, nm)
	idx := 0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for m, p := range phase {
				tx, ty := tabX[m][x], tabY[m][y]
				xr := tx.re*p.re - tx.im*p.im
				xi := tx.re*p.im + tx.im*p.re
				line[m] = lineTerm{amp[m], xr*ty.re - xi*ty.im, xr*ty.im + xi*ty.re}
			}
			addLine(data[idx:idx+nz], line, tabZ)
			idx += nz
		}
	}
}

// lineTerm is one mode's factor along an (x, y) line: the scaled
// amplitude and the phase-shifted x·y complex exponential.
type lineTerm struct{ a, yr, yi float64 }

// addLine adds every mode's term to each point of one z line; tabZ holds
// the z exponentials mode-minor.
func addLine(d []float64, line []lineTerm, tabZ []cplx) {
	nm := len(line)
	z := 0
	for ; z+4 <= len(d); z += 4 {
		t := tabZ[z*nm : (z+4)*nm]
		t0, t1, t2, t3 := t[:nm], t[nm:][:nm], t[2*nm:][:nm], t[3*nm:][:nm]
		s0, s1, s2, s3 := d[z], d[z+1], d[z+2], d[z+3]
		for m, l := range line {
			s0 += l.a * (l.yr*t0[m].re - l.yi*t0[m].im)
			s1 += l.a * (l.yr*t1[m].re - l.yi*t1[m].im)
			s2 += l.a * (l.yr*t2[m].re - l.yi*t2[m].im)
			s3 += l.a * (l.yr*t3[m].re - l.yi*t3[m].im)
		}
		d[z], d[z+1], d[z+2], d[z+3] = s0, s1, s2, s3
	}
	for ; z < len(d); z++ {
		t := tabZ[z*nm : z*nm+nm]
		s := d[z]
		for m, l := range line {
			s += l.a * (l.yr*t[m].re - l.yi*t[m].im)
		}
		d[z] = s
	}
}

// cplx is a plain complex pair (avoids complex128 boxing in hot loops).
type cplx struct{ re, im float64 }

func axisTable(freq, n int) []cplx {
	t := make([]cplx, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(freq) * float64(i) / float64(n)
		t[i].re, t[i].im = math.Cos(ang), math.Sin(ang)
	}
	return t
}

// forEach3 visits every point in storage order with its normalized
// coordinates u and w in [0,1) along the first and last axes. Besides the
// flat index idx it passes x, the row index row = x·ny + y and the
// in-plane index yz = y·nz + z, at which a term that depends on fewer
// axes is read from its table2. v is not passed: every term of v is
// tabulated.
func forEach3(f *grid.Field, fn func(idx, x, row, yz int, u, w float64)) {
	nx, ny, nz := dims3of(f)
	ws := table2(nz, 1, func(w, _ float64) float64 { return w })
	idx := 0
	for x := 0; x < nx; x++ {
		u := float64(x) / float64(nx)
		for y := 0; y < ny; y++ {
			row, yz := x*ny+y, y*nz
			for _, w := range ws {
				fn(idx, x, row, yz, u, w)
				idx++
				yz++
			}
		}
	}
}

// table2 tabulates fn over an n0×n1 grid, row-major, at the normalized
// coordinates a = i/n0 and b = j/n1 that forEach3 gives those axes. A
// term that depends on (v, w), (u, v) or u alone (n1 = 1) is evaluated
// once per entry and read back at forEach3's yz, row or x.
func table2(n0, n1 int, fn func(a, b float64) float64) []float64 {
	t := make([]float64, 0, n0*n1)
	for i := 0; i < n0; i++ {
		a := float64(i) / float64(n0)
		for j := 0; j < n1; j++ {
			t = append(t, fn(a, float64(j)/float64(n1)))
		}
	}
	return t
}
