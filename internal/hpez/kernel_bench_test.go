package hpez

import (
	"fmt"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/lattice"
)

// BenchmarkLatticeSweeps replays the level sweeps of a 49×144×144 SCALE
// compression at rel 1e-4 (the hpez_block shape, with its tuned plan)
// level by level in both directions, and reports ns/point over the
// level's class points. Levels 1–2 run block-tuned runs, level 3 the
// level-tuned whole-row runs; the coarser levels hold too few points to
// time around the off-clock restore without b.N growing without bound.
// Each forward iteration restores the level's original values off the
// clock; the inverse rewrites the values the forward left, so it needs
// only its literal cursor reset.
func BenchmarkLatticeSweeps(b *testing.B) {
	f := datagen.MustGenerate(datagen.Scale, 0, []int{49, 144, 144}, 1)
	dims := f.Dims()
	strides := grid.Strides(dims)
	pl := buildPlan(f, DefaultOptions(1e-4*f.Range()))
	cs := core.NewSweep(append([]float64(nil), f.Data...), make([]int32, f.Len()))
	cs.GatherCoarse(dims, pl.levels, pl.radius)
	fwd := newSweep(cs, true, &pl, len(dims))
	inv := newSweep(cs, false, &pl, len(dims))
	pre := make([]float64, f.Len())
	for level := pl.levels; level >= 1; level-- {
		classes := lattice.Classes(dims, strides, level)
		copy(pre, cs.Data)
		lit := len(cs.Lits)
		fwd.sweepLevel(classes, level)
		if level > 3 {
			continue
		}
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
				fwd.sweepLevel(classes, level)
			}
			perPoint(b)
		})
		b.Run(fmt.Sprintf("inverse/level=%d", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cs.Lit = lit
				if !inv.sweepLevel(classes, level) {
					b.Fatal("inverse sweep ran out of literals")
				}
			}
			perPoint(b)
		})
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
