package bench

import (
	"fmt"

	"scdc"
	"scdc/internal/datagen"
	"scdc/internal/mgard"
	"scdc/internal/sz3"
)

// IndexCell is an engine, a synthetic field and a value-range-relative
// bound whose quantization index arrays feed the entropy-stage kernel
// benchmarks: the arrays a real compression hands to the Huffman stage,
// not a synthetic distribution.
type IndexCell struct {
	Name    string
	Alg     scdc.Algorithm // SZ3 or MGARD
	Dataset datagen.Dataset
	Dims    []int
	Rel     float64
}

// IndexCells are shaped like two cells of the repository benchmark: SZ3
// on a smooth Miranda field (~1 bit/value with QP, a narrow alphabet) and
// MGARD on S3D at a tight bound (~10 bits/value, ~10^4 distinct symbols,
// codes up to ~20 bits).
var IndexCells = []IndexCell{
	{"sz3_smooth", scdc.SZ3, datagen.Miranda, []int{112, 160, 160}, 1e-4},
	{"mgard_tight", scdc.MGARD, datagen.S3D, []int{88, 88, 88}, 2e-5},
}

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
