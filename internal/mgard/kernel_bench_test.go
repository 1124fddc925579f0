package mgard

import (
	"fmt"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/lattice"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

// BenchmarkLatticeSweeps replays the level stages of an 88³ S3D
// compression at rel 2e-5 (the mgard_tight shape) level by level — the
// forward and inverse row sweeps and the projection correction — and
// reports ns/point over the level's class points, so a level's forward
// and correction rows add up to its compress cost per point. The coarser
// levels above 3 hold too few points to time around the off-clock
// restore without b.N growing without bound. Each forward iteration
// restores the level's original values off the clock; the inverse
// rewrites the values the forward left, so it needs only its literal
// cursor reset; the correction alternates its sign, and the field it
// leaves is put back before the next level.
func BenchmarkLatticeSweeps(b *testing.B) {
	f := datagen.MustGenerate(datagen.S3D, 0, []int{88, 88, 88}, 1)
	dims := f.Dims()
	strides := grid.Strides(dims)
	levels := sz3.AnchorLevels(dims)
	quant := quantizer.Linear{EB: levelBound(2e-5*f.Range(), levels), Radius: quantizer.DefaultRadius}
	cs := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, f.Len()))
	fwd := sweep{cs: cs, data: cs.Data, sym: cs.Sym, fwd: true, quant: quant}
	inv := sweep{cs: cs, data: cs.Data, sym: cs.Sym, quant: quant}
	pre := make([]float64, f.Len())
	for level := 1; level <= levels; level++ {
		classes := lattice.Classes(dims, strides, level)
		copy(pre, cs.Data)
		lit := len(cs.Lits)
		fwd.sweepLevel(classes)
		if level <= 3 {
			points := 0
			for _, cl := range classes {
				points += cl.Region.Rows() * cl.Region.Ext[3]
			}
			perPoint := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
			}
			b.Run(fmt.Sprintf("forward/level=%d", level), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for _, cl := range classes {
						restoreRegion(cs.Data, pre, cl.Region)
					}
					cs.Lits = cs.Lits[:lit]
					b.StartTimer()
					fwd.sweepLevel(classes)
				}
				perPoint(b)
			})
			b.Run(fmt.Sprintf("inverse/level=%d", level), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cs.Lit = lit
					if !inv.sweepLevel(classes) {
						b.Fatal("inverse sweep ran out of literals")
					}
				}
				perPoint(b)
			})
			copy(pre, cs.Data)
			b.Run(fmt.Sprintf("correction/level=%d", level), func(b *testing.B) {
				sign := 1.0
				for i := 0; i < b.N; i++ {
					applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, sign)
					sign = -sign
				}
				perPoint(b)
			})
			copy(cs.Data, pre)
		}
		applyCorrection(cs.Data, dims, strides, level, quant, cs.Sym, +1)
	}
}

// restoreRegion copies src into dst at the points of rg.
func restoreRegion(dst, src []float64, rg core.Region) {
	cur := core.RowCursor{Base: rg.Base}
	for r, rows := 0, rg.Rows(); r < rows; r++ {
		for k, o := 0, cur.Base; k < rg.Ext[3]; k, o = k+1, o+rg.Strd[3] {
			dst[o] = src[o]
		}
		rg.NextRow(&cur)
	}
}
