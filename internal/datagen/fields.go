package datagen

import (
	"math"
	"math/rand"

	"scdc/internal/grid"
)

// genMiranda: large turbulence simulation. Fields (velocity components,
// density, pressure, ...) share a Kolmogorov-like spectrum plus a tanh
// shear (mixing) layer across the first axis — the structure Miranda's
// Rayleigh-Taylor mixing runs exhibit.
func genMiranda(f *grid.Field, field int, rng *rand.Rand) {
	addSpectral(f, spectrum(rng, 48, 2.2, 1.5, 24), 1.0)
	layerPos := 0.45 + 0.1*rng.Float64()
	width := 0.03 + 0.02*rng.Float64()
	amp := 1.5 + 0.5*float64(field%3)
	wob := spectrum(rng, 6, 1.5, 1, 4)
	_, ny, nz := dims3of(f)
	wobble := table2(ny, nz, func(v, w float64) float64 {
		s := 0.0
		for _, m := range wob {
			s += 0.02 * m.amp * math.Sin(2*math.Pi*(float64(m.fy)*v+float64(m.fz)*w)+m.phase)
		}
		return s
	})
	forEach3(f, func(idx, _, _, yz int, u, _ float64) {
		f.Data[idx] += amp * math.Tanh((u-layerPos+wobble[yz])/width)
	})
}

// genHurricane: weather simulation around a vortex core. Swirling
// velocity / pressure-dip structure plus synoptic-scale spectral noise.
func genHurricane(f *grid.Field, field int, rng *rand.Rand) {
	addSpectral(f, spectrum(rng, 40, 2.0, 1.5, 16), 0.5)
	cx, cy := 0.45+0.1*rng.Float64(), 0.45+0.1*rng.Float64()
	core := 0.06 + 0.03*rng.Float64()
	nx, ny, nz := dims3of(f)
	// plane tabulates a term of the lateral offset from the core.
	plane := func(fn func(dy, dz, r float64) float64) []float64 {
		return table2(ny, nz, func(v, w float64) float64 {
			dy, dz := v-cx, w-cy
			return fn(dy, dz, math.Hypot(dy, dz))
		})
	}
	if field%3 == 0 { // pressure-like: dip at the core
		dip := plane(func(_, _, r float64) float64 { return -2 * math.Exp(-r*r/(2*core*core)) })
		decay := table2(nx, 1, func(u, _ float64) float64 { return math.Exp(-u) })
		forEach3(f, func(idx, x, _, yz int, _, _ float64) {
			f.Data[idx] += dip[yz] * decay[x]
		})
		return
	}
	// Velocity components: a Rankine-like vortex profile with altitude
	// (u) decay, times the tangential direction's component.
	profile := plane(func(_, _, r float64) float64 { return r / core * math.Exp(1-r/core) })
	decay := table2(nx, 1, func(u, _ float64) float64 { return math.Exp(-2 * u) })
	dir := plane(func(dy, dz, r float64) float64 {
		if field%3 == 1 {
			return -dz / (r + 1e-9)
		}
		return dy / (r + 1e-9)
	})
	forEach3(f, func(idx, x, _, yz int, _, _ float64) {
		f.Data[idx] += profile[yz] * decay[x] * dir[yz]
	})
}

// genSegSalt: layered geology with undulating interfaces and a salt body
// — piecewise-smooth with sharp reflectors, the structure that produces
// the strong index clustering of the paper's Figures 3-5.
func genSegSalt(f *grid.Field, field int, rng *rand.Rand) {
	nLayers := 8 + rng.Intn(5)
	depths := make([]float64, nLayers)
	vels := make([]float64, nLayers)
	for i := range depths {
		depths[i] = (float64(i) + rng.Float64()) / float64(nLayers)
		vels[i] = 1.5 + 0.35*float64(i) + 0.2*rng.Float64()
	}
	und := spectrum(rng, 8, 1.6, 1, 6)
	// Salt body: an ellipsoidal blob of high velocity.
	sx, sy, sz := 0.4+0.2*rng.Float64(), 0.4+0.2*rng.Float64(), 0.35+0.1*rng.Float64()
	ra, rb, rc := 0.12+0.06*rng.Float64(), 0.12+0.06*rng.Float64(), 0.2+0.1*rng.Float64()

	// The gridded model is band-limited: interfaces ramp over ~1.5 cells.
	nx, ny, nz := dims3of(f)
	ramp := 1.5 / float64(nz)

	// Interface undulation and the salt body's lateral offset depend on
	// the lateral coordinates only.
	undul := table2(nx, ny, func(u, v float64) float64 {
		s := 0.0
		for _, m := range und {
			s += 0.02 * m.amp * math.Sin(2*math.Pi*(float64(m.fx)*u+float64(m.fy)*v)+m.phase)
		}
		return s
	})
	saltLat := table2(nx, ny, func(u, v float64) float64 {
		du, dv := (u-sx)/ra, (v-sy)/rb
		return du*du + dv*dv
	})

	forEach3(f, func(idx, _, row, _ int, _, w float64) {
		depth := w + undul[row]
		// Smoothly stacked layers: each interface contributes its velocity
		// step through a narrow smoothstep.
		val := vels[0] + 0.3*depth // gentle compaction gradient
		for i := 1; i < nLayers; i++ {
			val += (vels[i] - vels[i-1]) * smoothstep((depth-depths[i])/ramp)
		}
		// Salt body override, with a smooth rim.
		dw := (w - sz) / rc
		r := math.Sqrt(saltLat[row] + dw*dw)
		val += (4.5 - val) * smoothstep((1-r)/0.08)
		f.Data[idx] += val
	})
	if field > 0 {
		// Pressure/wavefield-like fields: ripples shaped by the layers.
		addSpectral(f, spectrum(rng, 32, 1.8, 3, 16), 0.15)
	}
}

// smoothstep is the cubic Hermite step clamped to [0, 1].
func smoothstep(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}

// genScale: SCALE-RM regional weather. Convective cells (quasi-periodic
// cellular pattern) over a boundary-layer vertical gradient; the first
// axis is height (98 thin levels in the paper).
func genScale(f *grid.Field, field int, rng *rand.Rand) {
	addSpectral(f, spectrum(rng, 40, 2.0, 2, 20), 0.4)
	cellK := 6 + rng.Intn(5)
	ph1, ph2 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	nx, ny, nz := dims3of(f)
	cell := table2(ny, nz, func(v, w float64) float64 {
		c := math.Sin(2*math.Pi*float64(cellK)*v+ph1) * math.Sin(2*math.Pi*float64(cellK)*w+ph2)
		return 0.8 * c
	})
	bl := table2(nx, 1, func(u, _ float64) float64 { return math.Exp(-3 * u) }) // boundary layer decays with height
	base := table2(nx, 1, func(u, _ float64) float64 { return 2 * math.Exp(-3*u) * float64(1+field%2) })
	forEach3(f, func(idx, x, _, yz int, _, _ float64) {
		f.Data[idx] += cell[yz]*bl[x] + base[x]
	})
}

// genS3D: combustion. A wrinkled flame front (sharp sigmoid) separating
// burned/unburned states plus species plumes; the paper stores S3D in
// double precision.
func genS3D(f *grid.Field, field int, rng *rand.Rand) {
	addSpectral(f, spectrum(rng, 36, 2.1, 2, 24), 0.3)
	frontPos := 0.4 + 0.2*rng.Float64()
	width := 0.015 + 0.01*rng.Float64()
	wrinkle := spectrum(rng, 8, 1.4, 1, 8)
	hi := 1.0 + 0.5*float64(field%4)
	_, ny, nz := dims3of(f)
	wr := table2(ny, nz, func(v, w float64) float64 {
		s := 0.0
		for _, m := range wrinkle {
			s += 0.03 * m.amp * math.Sin(2*math.Pi*(float64(m.fy)*v+float64(m.fz)*w)+m.phase)
		}
		return s
	})
	forEach3(f, func(idx, _, _, yz int, u, _ float64) {
		// Sigmoid front: burned side at hi, unburned near 0.
		f.Data[idx] += hi / (1 + math.Exp(-(u-frontPos+wr[yz])/width))
	})
}

// genCESM: climate model output. Quasi-2D (26 thin levels): smooth zonal
// (latitude) bands plus planetary waves, strongly coherent across levels.
func genCESM(f *grid.Field, field int, rng *rand.Rand) {
	nbands := 3 + rng.Intn(3)
	ph := 2 * math.Pi * rng.Float64()
	waves := spectrum(rng, 24, 2.2, 1.5, 12)
	nx, ny, nz := dims3of(f)
	// v is latitude: zonal banding; u is the model level: smooth
	// vertical structure.
	band := table2(ny, nz, func(v, _ float64) float64 { return 2 * math.Cos(2*math.Pi*float64(nbands)*v+ph) })
	level := table2(nx, 1, func(u, _ float64) float64 { return 1 - 0.5*u })
	wave := table2(ny, nz, func(v, w float64) float64 {
		return 0.3 * math.Sin(2*math.Pi*(2*w+3*v)+ph) * float64(1+field%2)
	})
	forEach3(f, func(idx, x, _, yz int, _, _ float64) {
		f.Data[idx] += band[yz]*level[x] + wave[yz]
	})
	addSpectral(f, waves, 0.25)
}

// genRTM: reverse-time-migration snapshots. An expanding spherical
// wavefront over a layered background; field is the time step and sets
// the wavefront radius, so consecutive slices form a coherent 4D volume.
func genRTM(f *grid.Field, step int, rng *rand.Rand) {
	// Layered background, deterministic across time steps: derive a
	// dedicated rng so every slice shares the same earth model.
	bg := rand.New(rand.NewSource(424242))
	nLayers := 6
	vels := make([]float64, nLayers)
	for i := range vels {
		vels[i] = 0.2 + 0.1*float64(i) + 0.05*bg.Float64()
	}
	radius := 0.08 + 0.9*float64(step%64)/64
	width := 0.05
	nx, ny, _ := dims3of(f)
	// The source sits at the surface centre: the lateral part of a
	// point's squared distance to it depends on (u, v) only.
	lat := table2(nx, ny, func(u, v float64) float64 {
		du, dv := u-0.5, v-0.5
		return du*du + dv*dv
	})
	forEach3(f, func(idx, _, row, _ int, _, w float64) {
		layer := int(w * float64(nLayers))
		if layer >= nLayers {
			layer = nLayers - 1
		}
		val := vels[layer]
		// Spherical shell wavefront from a surface source. Real RTM
		// snapshots are band-limited (source wavelet), so the shell is a
		// smooth modulated Gaussian.
		r := math.Sqrt(lat[row] + w*w)
		val += 2 * math.Exp(-(r-radius)*(r-radius)/(2*width*width)) *
			math.Cos(2*math.Pi*(r-radius)/0.15)
		f.Data[idx] += val
	})
	addSpectral(f, spectrum(rng, 16, 2.4, 2, 10), 0.02)
}
