package bench

import (
	"fmt"
	"slices"

	"scdc"
	"scdc/internal/datagen"
	"scdc/internal/hpez"
	"scdc/internal/lossless"
	"scdc/internal/mgard"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
)

// IndexCell is an engine, a synthetic field and a value-range-relative
// bound whose quantization index arrays feed the entropy-stage kernel
// benchmarks: the arrays a real compression hands to the Huffman stage,
// not a synthetic distribution.
type IndexCell struct {
	Name    string
	Alg     scdc.Algorithm // SZ3, QoZ, HPEZ or MGARD
	Dataset datagen.Dataset
	Dims    []int
	Rel     float64
}

// IndexCells are shaped like three cells of the repository benchmark, one
// per Huffman decode kernel: SZ3 on a smooth Miranda field (~1 bit/value
// with QP, a narrow alphabet, run-coded: expandFast), HPEZ on SCALE (~3
// bits/value, plain and long: decodeMulti) and MGARD on S3D at a tight
// bound (~10 bits/value, ~10^4 distinct symbols, codes up to ~20 bits:
// decodeSingle).
var IndexCells = []IndexCell{
	{"sz3_smooth", scdc.SZ3, datagen.Miranda, []int{112, 160, 160}, 1e-4},
	{"hpez_block", scdc.HPEZ, datagen.Scale, []int{49, 144, 144}, 1e-4},
	{"mgard_tight", scdc.MGARD, datagen.S3D, []int{88, 88, 88}, 2e-5},
}

// Workloads are the four cells of the repository benchmark: IndexCells
// and QoZ on layered SegSalt at rel 1e-3.
var Workloads = append(slices.Clip(IndexCells),
	IndexCell{"qoz_tuned", scdc.QoZ, datagen.SegSalt, []int{96, 96, 80}, 1e-3})

// Arrays compresses the cell's field (field 0, seed 1) through its engine
// with QP on and returns the index arrays before (q) and after (qp) QP.
func (c IndexCell) Arrays() (q, qp []int32, err error) {
	f := datagen.MustGenerate(c.Dataset, 0, c.Dims, 1)
	eb := c.Rel * f.Range()
	var tr sz3.Trace
	switch c.Alg {
	case scdc.SZ3:
		o := sz3.DefaultOptions(eb).WithQP()
		o.Trace = &tr
		_, err = sz3.Compress(f, o)
	case scdc.QoZ:
		o := qoz.DefaultOptions(eb).WithQP()
		o.Trace = &tr
		_, err = qoz.Compress(f, o)
	case scdc.HPEZ:
		o := hpez.DefaultOptions(eb).WithQP()
		o.Trace = &tr
		_, err = hpez.Compress(f, o)
	case scdc.MGARD:
		o := mgard.DefaultOptions(eb).WithQP()
		o.Trace = &tr
		_, err = mgard.Compress(f, o)
	default:
		return nil, nil, fmt.Errorf("index cell %s: no engine for %v", c.Name, c.Alg)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("index cell %s: %w", c.Name, err)
	}
	return tr.Q, tr.QP, nil
}

// Plaintexts compresses the cell's field (field 0, seed 1) through the
// public API, with QP on and with QP off, and returns the plaintext of
// each stream's lossless stage: the bytes its flate body inflates to. The
// field is synthesized once for both.
func (c IndexCell) Plaintexts() (qp, base []byte, err error) {
	f := datagen.MustGenerate(c.Dataset, 0, c.Dims, 1)
	plain := func(q scdc.QPConfig) ([]byte, error) {
		opts := scdc.Options{Algorithm: c.Alg, ErrorBound: c.Rel * f.Range(), QP: q}
		stream, err := scdc.Compress(f.Data, f.Dims(), opts)
		if err != nil {
			return nil, fmt.Errorf("plaintext %s: %w", c.Name, err)
		}
		info, err := scdc.Inspect(stream)
		if err != nil {
			return nil, fmt.Errorf("plaintext %s: %w", c.Name, err)
		}
		end := len(stream) - 4 // the CRC32C footer
		return lossless.Decompress(stream[end-info.PayloadBytes : end])
	}
	if qp, err = plain(scdc.DefaultQP()); err != nil {
		return nil, nil, err
	}
	base, err = plain(scdc.QPConfig{})
	return qp, base, err
}
