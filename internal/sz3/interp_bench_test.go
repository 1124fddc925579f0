package sz3

import (
	"fmt"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// BenchmarkInterpPass times the level-1 passes of the 112×160×160 Miranda
// field one at a time, forward and inverse, linear and cubic, and reports
// ns/point: the pass along axis 2 runs along its lines, the passes along
// axes 1 and 0 across blocks of lines (DESIGN.md §6.4), so the stride
// effect shows per direction. Each pass starts from the field a full
// compression left, which holds every lattice sample the pass reads.
func BenchmarkInterpPass(b *testing.B) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{112, 160, 160}, 1)
	dims := f.Dims()
	strides := grid.Strides(dims)
	quant := quantizer.Linear{EB: 1e-4 * f.Range(), Radius: quantizer.DefaultRadius}
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		spec := LevelSpec{Order: DefaultDirOrder(len(dims)), Kind: kind, Quant: quant}
		sw := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, len(f.Data)))
		CompressSchedule(sw, dims, Levels(dims), func(int) LevelSpec { return spec })
		forEachPass(dims, strides, 1, spec.Order, func(p *pass) {
			pa := *p
			points := float64(pa.numLines * pa.pointsPerLine)
			perPoint := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
			}
			b.Run(fmt.Sprintf("compress/%v/dir=%d", kind, pa.dir), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sw.Lits = sw.Lits[:0]
					compressPass(sw, &pa, kind, quant)
				}
				perPoint(b)
			})
			sw.Lits = sw.Lits[:0]
			compressPass(sw, &pa, kind, quant)
			lits := append([]float64(nil), sw.Lits...)
			b.Run(fmt.Sprintf("decompress/%v/dir=%d", kind, pa.dir), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sw.Lits, sw.Lit = lits, 0
					if err := decompressPass(sw, &pa, kind, quant); err != nil {
						b.Fatal(err)
					}
				}
				perPoint(b)
			})
		})
	}
}

// BenchmarkQPSweeps replays the QP sweeps of a 112×160×160 Miranda
// compression at rel 1e-4 (the sz3_smooth shape; the paper's default 2D /
// Case III / levels 1–2) over the real pass regions, level by level and in
// both directions, and reports ns/point over every point of the level's
// regions. The forward rows time the compressor's own call,
// core.Sweep.ForwardQP: the in-place transform plus its record of moves.
// Each forward iteration takes a fresh sweep, whose record is empty as a
// compression's is, and releases it off the clock; the inverse works in
// place, so each iteration restores the symbols off the clock. Levels above MaxLevel have no rows: there both directions
// return at once, and b.N would grow without bound around the restore.
func BenchmarkQPSweeps(b *testing.B) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{112, 160, 160}, 1)
	dims := f.Dims()
	levels := Levels(dims)
	quant := quantizer.Linear{EB: 1e-4 * f.Range(), Radius: quantizer.DefaultRadius}
	spec := LevelSpec{Order: DefaultDirOrder(len(dims)), Kind: interp.Cubic, Quant: quant}
	q := make([]int32, len(f.Data))
	CompressSchedule(core.NewSweep(append([]float64(nil), f.Data...), q), dims, levels, func(int) LevelSpec { return spec })

	pred, err := core.NewPredictor(core.Default(), quant.Radius)
	if err != nil {
		b.Fatal(err)
	}
	be := core.Backend{QP: core.Default(), Radius: quant.Radius}
	sw, err := be.Sweep(f.Data, true, core.StageInterp)
	if err != nil {
		b.Fatal(err)
	}
	defer sw.Release()
	regions := make([][]core.Region, levels+1)
	copy(sw.Sym, q)
	for level := levels; level >= 1; level-- {
		forEachPass(dims, grid.Strides(dims), level, spec.Order, func(pa *pass) {
			rg := pa.qpRegion()
			regions[level] = append(regions[level], rg)
			sw.ForwardQP(rg)
		})
	}
	qp := append([]int32(nil), sw.Sym...)
	enc := make([]int32, len(q))
	for level := 1; level <= min(levels, pred.Cfg.MaxLevel); level++ {
		points := 0
		for _, rg := range regions[level] {
			points += rg.Rows() * rg.Ext[3]
		}
		perPoint := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
		}
		b.Run(fmt.Sprintf("forward/level=%d", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fw, err := be.Sweep(f.Data, true, core.StageInterp)
				if err != nil {
					b.Fatal(err)
				}
				copy(fw.Sym, q)
				b.StartTimer()
				for _, rg := range regions[level] {
					fw.ForwardQP(rg)
				}
				b.StopTimer()
				fw.Release()
				b.StartTimer()
			}
			perPoint(b)
		})
		b.Run(fmt.Sprintf("inverse/level=%d", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(enc, qp)
				b.StartTimer()
				for _, rg := range regions[level] {
					pred.InverseRegion(enc, rg)
				}
			}
			perPoint(b)
		})
	}
}

// BenchmarkInterpKernels isolates the interpolation stage on the Miranda
// benchmark field: the retained reference walker (closure dispatch +
// unfused quantizer calls) against the fused run kernels, forward and
// inverse, linear and cubic.
func BenchmarkInterpKernels(b *testing.B) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{64, 96, 96}, 9)
	dims := f.Dims()
	n := len(f.Data)
	levels := Levels(dims)
	quant := quantizer.Linear{EB: 1e-3 * f.Range(), Radius: quantizer.DefaultRadius}

	seedOrigin := func(data []float64, q []int32) []float64 {
		var lits []float64
		sym, dec, ok := quant.Quantize(data[0], 0)
		q[0] = sym
		if !ok {
			lits = append(lits, data[0])
		}
		data[0] = dec
		return lits
	}

	work := make([]float64, n)
	q := make([]int32, n)
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		spec := LevelSpec{Order: DefaultDirOrder(len(dims)), Kind: kind, Quant: quant}
		specFor := func(int) LevelSpec { return spec }

		b.Run(fmt.Sprintf("forward/walker/%v", kind), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, f.Data)
				lits := seedOrigin(work, q)
				compressScheduleRef(work, dims, levels, specFor, q, nil, nil, lits)
			}
		})
		b.Run(fmt.Sprintf("forward/kernel/%v", kind), func(b *testing.B) {
			var be core.Backend
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw, _ := be.Sweep(f.Data, false, core.StageInterp)
				sw.Lits = seedOrigin(sw.Data, sw.Sym)
				CompressSchedule(sw, dims, levels, specFor)
				sw.Release()
			}
		})

		// Inverse benches reconstruct from the streams the forward pass
		// just produced.
		copy(work, f.Data)
		stored := make([]int32, n)
		sw := core.NewSweep(work, stored)
		sw.Lits = seedOrigin(work, stored)
		CompressSchedule(sw, dims, levels, specFor)
		lits := sw.Lits
		lit0 := 0
		if stored[0] == quantizer.Unpredictable {
			lit0 = 1
		}
		dec := make([]float64, n)
		enc := make([]int32, n)
		seedDecode := func(dec []float64, enc []int32) {
			copy(enc, stored)
			if lit0 == 1 {
				dec[0] = lits[0]
			} else {
				dec[0] = quant.Recover(0, enc[0])
			}
		}

		b.Run(fmt.Sprintf("inverse/walker/%v", kind), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seedDecode(dec, enc)
				if _, ok := decompressScheduleRef(dec, dims, levels, specFor, enc, lits, lit0, nil); !ok {
					b.Fatal("literal stream exhausted")
				}
			}
		})
		b.Run(fmt.Sprintf("inverse/kernel/%v", kind), func(b *testing.B) {
			sw := core.NewSweep(dec, enc)
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seedDecode(sw.Data, sw.Sym)
				sw.Lits, sw.Lit = lits, lit0
				if err := DecompressSchedule(sw, dims, levels, specFor); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
