package core

import (
	"fmt"

	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/verdict"
)

// Sweep is what an engine's level sweeps run on, in either direction:
// the field, its symbol array and the literal stream, plus the QP stage
// the paper places inside the level loop (Algorithms 1-2). An engine
// gets one from Work.Sweep to compress and from Reader.Sweep to
// decompress, walks its passes or classes over Data/Sym with its own
// kernels, and calls ForwardQP after (InverseQP before) each region. Who
// runs QP, on how many workers, under which span, and how a literal
// shortfall is reported is decided here, once, for all four engines.
type Sweep struct {
	// Data is the field: compression overwrites it with the decompressed
	// values later predictions read, decompression reconstructs into it.
	Data []float64
	// Sym holds one stored symbol per point (quantizer.Unpredictable marks
	// a literal). Compression writes it; on decompression it arrives
	// possibly QP-transformed and InverseQP recovers it in place.
	Sym []int32
	// Lits is the literal stream, the unpredictable values in sweep order:
	// appended by compression, consumed from Lit by decompression.
	Lits []float64
	Lit  int

	qp      []int32    // compression: the QP-transformed copy of Sym
	pred    *Predictor // nil when QP is off
	workers int
	qpSp    *obs.Span   // accumulates the QP calls' share of the wall time
	wsp     []*obs.Span // its per-worker children
}

// NewSweep returns a bare sweep over data and sym: QP off, one worker,
// unobserved. The tuners' trial compressions run on it.
func NewSweep(data []float64, sym []int32) *Sweep {
	return &Sweep{Data: data, Sym: sym, workers: 1}
}

// Sweep returns the compression sweep over w's scratch.
func (w Work) Sweep(workers int) *Sweep {
	return &Sweep{Data: w.Data, Sym: w.Q, qp: w.QP, pred: w.Pred,
		workers: workers, qpSp: w.qpSp, wsp: workerSpans(w.qpSp, workers)}
}

// Sweep returns the decompression sweep that reconstructs into data from
// the blocks DecodeBlocks read.
func (r *Reader) Sweep(data []float64) *Sweep {
	return &Sweep{Data: data, Sym: r.Indices, Lits: r.Literals,
		pred: r.pred, workers: r.workers, qpSp: r.qpSp, wsp: workerSpans(r.qpSp, r.workers)}
}

// Workers is the goroutine budget of one pass or class sweep.
func (s *Sweep) Workers() int { return s.workers }

// ForwardQP transforms the symbols of rg once the engine has written
// them: the QP copy receives Sym minus the compensation predicted from
// the region's already-written neighbors. A no-op when QP is off.
func (s *Sweep) ForwardQP(rg Region) {
	if s.qp == nil {
		return
	}
	t0 := s.qpSp.Begin()
	s.pred.ForwardRegion(s.Sym, s.qp, rg, s.workers, s.wsp)
	s.qpSp.AddSince(t0)
}

// InverseQP recovers the original symbols of rg in place, before the
// engine reconstructs the region's values. A no-op when the stream kept
// no QP.
func (s *Sweep) InverseQP(rg Region) {
	if s.pred == nil {
		return
	}
	t0 := s.qpSp.Begin()
	s.pred.InverseRegion(s.Sym, rg, s.workers, s.wsp)
	s.qpSp.AddSince(t0)
}

// Stamp stores the symbol of a point no QP region covers (an origin, the
// coarse lattice): it is its own QP transform.
func (s *Sweep) Stamp(idx int, sym int32) {
	s.Sym[idx] = sym
	if s.qp != nil {
		s.qp[idx] = sym
	}
}

// Literal consumes the next literal. ok is false when the stream has none
// left; the sweep then fails with Exhausted.
func (s *Sweep) Literal() (v float64, ok bool) {
	if s.Lit >= len(s.Lits) {
		return 0, false
	}
	v = s.Lits[s.Lit]
	s.Lit++
	return v, true
}

// Exhausted is the error of a sweep whose symbols call for more literals
// than the stream holds.
func (s *Sweep) Exhausted() error {
	return fmt.Errorf("%w: core: literal stream exhausted", verdict.ErrCorrupt)
}

// Drained checks, once the sweeps are done, that they consumed the
// literal stream exactly.
func (s *Sweep) Drained() error {
	if s.Lit > len(s.Lits) {
		return s.Exhausted()
	}
	if s.Lit < len(s.Lits) {
		return fmt.Errorf("%w: core: %d unused literals", verdict.ErrCorrupt, len(s.Lits)-s.Lit)
	}
	return nil
}

// forEachCoarse visits the coarse lattice of dims — the points whose
// every coordinate is a multiple of 2^levels — in row-major order.
func forEachCoarse(dims []int, levels int, fn func(idx int)) {
	step := 1 << levels
	strides := grid.Strides(dims)
	var walk func(axis, base int)
	walk = func(axis, base int) {
		if axis == len(dims) {
			fn(base)
			return
		}
		for c := 0; c < dims[axis]; c += step {
			walk(axis+1, base+c*strides[axis])
		}
	}
	walk(0, 0)
}

// coarseCount is the number of points forEachCoarse visits.
func coarseCount(dims []int, levels int) int {
	step, n := 1<<levels, 1
	for _, d := range dims {
		n *= (d + step - 1) / step
	}
	return n
}

// GatherCoarse returns the values of Data on the coarse lattice, which
// the stream stores losslessly, and stamps center — the zero-residual
// symbol — at those points.
func (s *Sweep) GatherCoarse(dims []int, levels int, center int32) []float64 {
	side := make([]float64, 0, coarseCount(dims, levels))
	forEachCoarse(dims, levels, func(idx int) {
		side = append(side, s.Data[idx])
		s.Stamp(idx, center)
	})
	return side
}

// ScatterCoarse reverses GatherCoarse on the decode side. side must hold
// exactly one value per coarse lattice point.
func (s *Sweep) ScatterCoarse(dims []int, levels int, center int32, side []float64) error {
	if want := coarseCount(dims, levels); len(side) != want {
		return fmt.Errorf("%w: core: %d coarse-lattice values for %d points", verdict.ErrCorrupt, len(side), want)
	}
	i := 0
	forEachCoarse(dims, levels, func(idx int) {
		s.Data[idx] = side[i]
		s.Sym[idx] = center
		i++
	})
	return nil
}
