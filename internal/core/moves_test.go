package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/obs"
)

// classRegions returns the parity classes of a row-major field of dims
// at levels 1..levels — the regions HPEZ and MGARD sweep, one per nonzero
// parity mask per level — with Left/Top/Back on the three fastest axes.
// Together with the coarse lattice they partition the field.
func classRegions(dims []int, levels int) []Region {
	var out []Region
	pad := 4 - len(dims)
	strides := make([]int, len(dims))
	for a, s := len(dims)-1, 1; a >= 0; a-- {
		strides[a], s = s, s*dims[a]
	}
	for level := 1; level <= levels; level++ {
		s := 1 << (level - 1)
		for mask := 1; mask < 1<<len(dims); mask++ {
			rg := Region{Ext: [4]int{1, 1, 1, 1}, Left: 3, Top: 2, Back: 1, Level: level}
			empty := false
			for a, d := range dims {
				off := 0
				if mask>>a&1 == 1 {
					off = s
				}
				cnt := 0
				if off < d {
					cnt = (d-1-off)/(2*s) + 1
				}
				empty = empty || cnt == 0
				rg.Base += off * strides[a]
				rg.Ext[a+pad], rg.Strd[a+pad] = cnt, 2*s*strides[a]
			}
			if !empty {
				out = append(out, rg)
			}
		}
	}
	return out
}

// TestSweepMovesShift pins the in-place compression path against the
// two-array reference, over every (Mode, Cond) pair, MaxLevel 0-2, 1D-4D
// fields with extent-1 axes, symbol fills from near-one-bit and ramps
// (where QP pays) to literal-heavy and hostile, and radii 2, 2^15 and
// 2^30 (where every move of a literal or a hostile symbol leaves the
// window through the overflow lists):
//
//   - the symbols ForwardQP leaves are the reference forward's output;
//   - the distribution the record of moves derives for the original
//     symbols deep-equals entropy.Analyze of them, Bits to the last bit;
//   - the entropy stage writes the bytes ChooseEncodingCoder writes over
//     the two arrays and keeps or drops QP as it does; a dropped sweep
//     holds the original symbols again, and every sweep's restore
//     recovers them.
func TestSweepMovesShift(t *testing.T) {
	fields := []struct {
		name string
		fill func(rng *rand.Rand, a []int32, radius int32, dims []int)
	}{
		{"smooth", func(rng *rand.Rand, a []int32, radius int32, _ []int) {
			for i := range a {
				a[i] = radius + int32(rng.Intn(3)) - 1
			}
		}},
		{"ramp", func(rng *rand.Rand, a []int32, radius int32, dims []int) {
			for i := range a { // a sum of per-axis ramps: Lorenzo predicts it, QP pays
				v, rest := int32(1), i
				for k := len(dims) - 1; k >= 0; k-- {
					v += int32(rest % dims[k] / 3)
					rest /= dims[k]
				}
				a[i] = radius + v
				if rng.Intn(16) == 0 {
					a[i] = radius - 1
				}
			}
		}},
		{"literal-heavy", func(rng *rand.Rand, a []int32, radius int32, _ []int) {
			for i := range a {
				a[i] = radius + int32(rng.Intn(7)) - 3
				if rng.Intn(3) == 0 {
					a[i] = 0
				}
			}
		}},
		{"hostile", func(rng *rand.Rand, a []int32, radius int32, _ []int) { fillSymbols(rng, a, radius) }},
	}
	dimsList := [][]int{{700}, {23, 29}, {1, 21, 25}, {8, 9, 10}, {4, 1, 12, 13}, {3, 4, 7, 8}}
	rng := rand.New(rand.NewSource(41))
	cases, dropped, far := 0, 0, 0
	for _, dims := range dimsList {
		n := 1
		for _, d := range dims {
			n *= d
		}
		regions := classRegions(dims, 2)
		for _, radius := range []int32{2, 1 << 15, 1 << 30} {
			for _, fd := range fields {
				for _, mode := range allModes()[1:] {
					for _, cond := range allConds() {
						for _, maxLevel := range []int{0, 1, 2} {
							cfg := Config{Mode: mode, Cond: cond, MaxLevel: maxLevel}
							name := fmt.Sprintf("%v/r%d/%s/%v/%v/ml%d", dims, radius, fd.name, mode, cond, maxLevel)
							q := make([]int32, n)
							fd.fill(rng, q, radius, dims)

							ref := &Predictor{Cfg: cfg, Radius: radius}
							qp := slices.Clone(q)
							for _, rg := range regions {
								ref.ForwardRegionRef(q, qp, rg)
							}

							b := Backend{QP: cfg, Radius: radius}
							sw, err := b.Sweep(make([]float64, n), true, StageInterp)
							if err != nil {
								t.Fatal(err)
							}
							copy(sw.Sym, q)
							for _, rg := range regions {
								sw.ForwardQP(rg)
							}
							if !slices.Equal(sw.Sym, qp) {
								t.Fatalf("%s: ForwardQP differs from the reference forward", name)
							}
							if sw.Pred.Compensated != ref.Compensated {
								t.Fatalf("%s: Compensated %d, reference %d", name, sw.Pred.Compensated, ref.Compensated)
							}
							restored := slices.Clone(sw.Sym)
							sw.restore(restored)
							if !slices.Equal(restored, q) || sw.Pred.Compensated != ref.Compensated {
								t.Fatalf("%s: restore did not recover q, or counted again", name)
							}
							far += len(sw.mv.over)

							got, want := sw.mv.shift(entropy.Analyze(sw.Sym)), entropy.Analyze(q)
							if !reflect.DeepEqual(got, want) || math.Float64bits(got.Bits) != math.Float64bits(want.Bits) {
								t.Fatalf("%s: derived distribution\n%+v\nAnalyze(q)\n%+v", name, got, want)
							}

							rec := obs.New()
							sp := rec.Span("huffman")
							enc, kept := sw.encodeSweep(false, sp)
							sp.End()
							wantEnc, wantKept := ChooseEncodingCoder(q, qp, entropy.CoderHuffman, 1, 1, nil)
							if kept != wantKept || !bytes.Equal(enc, wantEnc) {
								t.Fatalf("%s: kept=%v and %d bytes, the two-array reference kept=%v and %d bytes",
									name, kept, len(enc), wantKept, len(wantEnc))
							}
							if !kept {
								dropped++
								if !slices.Equal(sw.Sym, q) {
									t.Fatalf("%s: QP dropped but the sweep still holds transformed symbols", name)
								}
							}
							if c := rec.Report().Find("huffman").Counters; c["est_bytes_q"] != int64(want.HuffmanBytes()) {
								t.Fatalf("%s: est_bytes_q %d, want %d", name, c["est_bytes_q"], want.HuffmanBytes())
							}
							sw.Release()
							cases++
						}
					}
				}
			}
		}
	}
	// The table must reach both decisions and the overflow path.
	t.Logf("%d cases: %d dropped QP, %d moves overflowed the window", cases, dropped, far)
	if dropped == 0 || dropped == cases || far == 0 {
		t.Errorf("%d cases: %d dropped QP, %d moves overflowed the window; want some of each", cases, dropped, far)
	}
}
