package sz3

import (
	"encoding/binary"
	"math"
	"testing"

	"scdc/internal/core"
	"scdc/internal/interp"
	"scdc/internal/quantizer"
)

// FuzzInterpKernelDifferential drives the fused interpolation kernels and
// the reference walker with fuzzer-chosen geometry (including extent-1
// and extent-2 axes, the cubic-fallback edges), interp kind, QP mode and
// field content, requiring bit-identical symbol
// streams, literals and reconstructed fields in both directions. Runs in
// make fuzz-smoke.
func FuzzInterpKernelDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(5), uint8(6), uint8(1), uint8(0), []byte{1, 9, 0, 8, 200, 7, 16, 3})
	f.Add(uint8(0), uint8(1), uint8(1), uint8(7), uint8(0), uint8(4), []byte{0, 0, 0})
	f.Add(uint8(1), uint8(2), uint8(2), uint8(2), uint8(3), uint8(5), []byte{255, 255, 0, 1})
	f.Add(uint8(1), uint8(33), uint8(1), uint8(1), uint8(2), uint8(1), []byte{42})
	f.Fuzz(func(t *testing.T, kindB, nx, ny, nz, nw, qpB uint8, raw []byte) {
		kind := interp.Kind(kindB % 2)
		dims := []int{int(nx%34) + 1, int(ny%9) + 1, int(nz%9) + 1, int(nw%5) + 1}
		// Drop trailing singleton axes sometimes so 1D–3D shapes appear too.
		nd := 1 + int(qpB>>4)%4
		dims = dims[:nd]
		var cfg core.Config
		switch qpB % 4 {
		case 1:
			cfg = core.Default()
		case 2:
			cfg = core.Config{Mode: core.Mode3D, Cond: core.CondAlways}
		case 3:
			cfg = core.Config{Mode: core.Mode1DBack, Cond: core.CondSkipUnpredictable, MaxLevel: 1}
		}

		n := 1
		for _, d := range dims {
			n *= d
		}
		if n > 1<<14 {
			t.Skip("field too large for a fuzz iteration")
		}
		orig := make([]float64, n)
		for i := range orig {
			var b byte
			if len(raw) > 0 {
				b = raw[i%len(raw)]
			}
			// Mix smooth structure with raw-driven jumps; occasionally
			// poison with NaN/Inf to exercise the unpredictable cascade.
			orig[i] = math.Sin(float64(i)*0.3) + float64(int8(b))*0.01
			switch {
			case b == 250:
				orig[i] = math.NaN()
			case b == 251:
				orig[i] = math.Inf(1)
			case b == 252:
				orig[i] = math.Inf(-1)
			case b > 240:
				orig[i] += 1e6 // far outside the radius: unpredictable
			}
		}
		if len(raw) >= 9 && raw[0] == 253 {
			// Let the fuzzer place one fully arbitrary bit pattern.
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[1:9]))
			orig[int(raw[len(raw)-1])%n] = v
		}

		levels := Levels(dims)
		quant := quantizer.Linear{EB: 1e-3, Radius: quantizer.DefaultRadius}
		spec := LevelSpec{Order: DefaultDirOrder(len(dims)), Kind: kind, Quant: quant}
		specFor := func(int) LevelSpec { return spec }

		var predR *core.Predictor
		var qpR []int32
		if cfg.Enabled() {
			var err error
			if predR, err = core.NewPredictor(cfg, quant.Radius); err != nil {
				t.Fatal(err)
			}
			qpR = make([]int32, n)
		}
		seedOrigin := func(data []float64, q, qp []int32) []float64 {
			var lits []float64
			sym, dec, ok := quant.Quantize(data[0], 0)
			q[0] = sym
			if !ok {
				lits = append(lits, data[0])
			}
			data[0] = dec
			if qp != nil {
				qp[0] = q[0]
			}
			return lits
		}

		swK := encSweep(t, orig, cfg, quant.Radius)
		dataK, stored := swK.Data, swK.Sym
		swK.Lits = seedOrigin(dataK, stored, nil)
		CompressSchedule(swK, dims, levels, specFor)
		litsK := swK.Lits

		dataR := append([]float64(nil), orig...)
		qR := make([]int32, n)
		litsR := seedOrigin(dataR, qR, qpR)
		litsR = compressScheduleRef(dataR, dims, levels, specFor, qR, qpR, predR, litsR)

		// With QP on, the sweep has transformed its symbols in place.
		storedR := qR
		if cfg.Enabled() {
			storedR = qpR
		}
		for i := range stored {
			if stored[i] != storedR[i] {
				t.Fatalf("stored symbol stream diverges at %d: kernel %d ref %d", i, stored[i], storedR[i])
			}
		}
		if len(litsK) != len(litsR) {
			t.Fatalf("literal count diverges: kernel %d ref %d", len(litsK), len(litsR))
		}
		for i := range litsK {
			if math.Float64bits(litsK[i]) != math.Float64bits(litsR[i]) {
				t.Fatalf("literal %d diverges: kernel %v ref %v", i, litsK[i], litsR[i])
			}
		}
		for i := range dataK {
			if math.Float64bits(dataK[i]) != math.Float64bits(dataR[i]) {
				t.Fatalf("compressed field diverges at %d: kernel %v ref %v", i, dataK[i], dataR[i])
			}
		}

		seedDecodeOrigin := func(data []float64, enc []int32) int {
			if enc[0] == quantizer.Unpredictable {
				data[0] = litsK[0]
				return 1
			}
			data[0] = quant.Recover(0, enc[0])
			return 0
		}

		swD := decSweep(t, stored, litsK, cfg, quant.Radius)
		encK, decK := swD.Sym, swD.Data
		swD.Lit = seedDecodeOrigin(decK, encK)
		if err := DecompressSchedule(swD, dims, levels, specFor); err != nil {
			t.Fatalf("kernel decompress: %v", err)
		}

		encR := append([]int32(nil), stored...)
		decR := make([]float64, n)
		litEnd, ok := decompressScheduleRef(decR, dims, levels, specFor, encR, litsK, seedDecodeOrigin(decR, encR), predR)
		if !ok || litEnd != len(litsK) {
			t.Fatalf("ref decompress: ok=%v consumed %d of %d literals", ok, litEnd, len(litsK))
		}

		for i := range decK {
			if math.Float64bits(decK[i]) != math.Float64bits(decR[i]) {
				t.Fatalf("reconstructed field diverges at %d: kernel %v ref %v", i, decK[i], decR[i])
			}
			if math.Float64bits(decK[i]) != math.Float64bits(dataK[i]) {
				t.Fatalf("decode does not invert encode at %d: %v != %v", i, decK[i], dataK[i])
			}
		}
	})
}
