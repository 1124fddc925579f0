package core

import (
	"testing"
)

// FuzzQPKernelDifferential drives the kernelized sweeps and the reference
// Compensate path with fuzzer-chosen geometry, configuration and symbol
// content, requiring byte-identical outputs and identical Compensated
// totals in both directions.
func FuzzQPKernelDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(2), uint8(4), uint8(5), uint8(6), []byte{1, 9, 0, 8, 7, 7, 16, 3})
	f.Add(uint8(5), uint8(0), uint8(0), uint8(3), uint8(3), uint8(3), []byte{0, 0, 0})
	f.Add(uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), uint8(9), []byte{8, 8, 8, 8})
	// Hostile symbols (bytes 17-20) next to the marker and the center.
	f.Add(uint8(4), uint8(2), uint8(1), uint8(3), uint8(4), uint8(5), []byte{17, 9, 18, 0, 19, 20, 8, 7, 12})
	f.Add(uint8(5), uint8(3), uint8(0), uint8(4), uint8(4), uint8(4), []byte{18, 18, 17, 9, 20, 19, 3})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(1), uint8(1), uint8(6), []byte{17, 0, 8, 20, 18})
	f.Fuzz(func(t *testing.T, modeB, condB, maxLevel, nx, ny, nz uint8, syms []byte) {
		mode := Mode(modeB % 6)
		cond := Cond(condB % 4)
		cfg := Config{Mode: mode, Cond: cond, MaxLevel: int(maxLevel % 4)}
		dx, dy, dz := int(nx%6)+1, int(ny%6)+1, int(nz%6)+1
		const radius = int32(8)
		hostile := hostileSymbols(radius)

		n := dx * dy * dz
		q := make([]int32, n)
		for i := range q {
			var b byte
			if len(syms) > 0 {
				b = syms[i%len(syms)]
			}
			// 0 (marker) .. 16 centered on 8, then the hostile extremes.
			if v := b % 21; v < 17 {
				q[i] = int32(v)
			} else {
				q[i] = hostile[v-17]
			}
		}
		// Axis roles rotate with the geometry so Left/Top/Back land on
		// every axis across the corpus.
		rg := Region{Base: 0, Ext: [4]int{1, dx, dy, dz}, Strd: [4]int{0, dy * dz, dz, 1},
			Left: 3, Top: 2, Back: 1, Level: int(maxLevel%3) + 1}
		if dx%2 == 0 {
			rg.Left, rg.Top, rg.Back = 2, 1, 3
		}
		if dy%3 == 0 {
			rg.Back = -1
		}

		// Both outputs start dirty, as pooled QP buffers do: the forward
		// must write every point of the region.
		qpRef, qp := make([]int32, n), make([]int32, n)
		for i := range qp {
			qpRef[i], qp[i] = -999, -999
		}
		refPred := &Predictor{Cfg: cfg, Radius: radius}
		refPred.ForwardRegionRef(q, qpRef, rg)

		pred := &Predictor{Cfg: cfg, Radius: radius}
		pred.ForwardRegion(q, qp, rg)
		for i := range qp {
			if qp[i] != qpRef[i] {
				t.Fatalf("forward mismatch at %d: kernel %d ref %d", i, qp[i], qpRef[i])
			}
		}
		if pred.Compensated != refPred.Compensated {
			t.Fatalf("forward Compensated kernel %d ref %d", pred.Compensated, refPred.Compensated)
		}

		invRef := make([]int32, n)
		copy(invRef, qpRef)
		refInv := &Predictor{Cfg: cfg, Radius: radius}
		refInv.InverseRegionRef(invRef, rg)

		inv := make([]int32, n)
		copy(inv, qpRef)
		invPred := &Predictor{Cfg: cfg, Radius: radius}
		invPred.InverseRegion(inv, rg)
		for i := range inv {
			if inv[i] != invRef[i] {
				t.Fatalf("inverse mismatch at %d: kernel %d ref %d", i, inv[i], invRef[i])
			}
			if inv[i] != q[i] {
				t.Fatalf("inverse did not recover q at %d: got %d want %d", i, inv[i], q[i])
			}
		}
		if invPred.Compensated != refInv.Compensated {
			t.Fatalf("inverse Compensated kernel %d ref %d", invPred.Compensated, refInv.Compensated)
		}
	})
}
