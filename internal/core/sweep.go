package core

import (
	"fmt"
	"time"

	"scdc/internal/grid"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// Sweep is the per-call state of an engine's level sweeps, in either
// direction: the field, its symbol array and the literal stream, the QP
// stage the paper places inside the level loop (Algorithms 1-2), the
// pooled scratch behind them and the clock that says which stage the
// call is in. An engine gets one from Backend.Sweep to compress and from
// Reader.Sweep to decompress, walks its passes or classes over Data/Sym
// with its own kernels, calls ForwardQP after (InverseQP before) each
// region and ends with Backend.Encode or Finish. Who runs QP, which span
// the time goes to, and how a literal shortfall is reported is decided
// here, once, for all four engines. The sweeps run on the calling
// goroutine.
type Sweep struct {
	// Data is the field: compression overwrites a working copy with the
	// decompressed values later predictions read (Algorithm 1 line 6),
	// decompression reconstructs into it.
	Data []float64
	// Sym holds one stored symbol per point (quantizer.Unpredictable marks
	// a literal). Compression writes it; on decompression it arrives
	// possibly QP-transformed and InverseQP recovers it in place.
	Sym []int32
	// QP receives the QP-transformed copy of Sym on compression. It is nil
	// on decompression, and Pred too when QP is off.
	QP   []int32
	Pred *Predictor
	// Lits is the literal stream, the unpredictable values in sweep order:
	// appended by compression, consumed from Lit by decompression.
	Lits []float64
	Lit  int

	field *grid.Field // decompression: the field Data belongs to
	clk   *clock      // nil when unobserved
}

// Stage names the span a sweep charges its own time to.
type Stage string

const (
	StageInterp  Stage = "interp"
	StageLorenzo Stage = "lorenzo" // SZ3's fallback predictor
)

// clock is the two-state stopwatch of an observed sweep: from the sweep's
// construction to its finish every instant belongs to the stage span,
// except inside ForwardQP/InverseQP, where it belongs to qp, so the two
// are disjoint sub-intervals of the call.
type clock struct {
	span  [2]*obs.Span // the stage's, then qp's; both accumulating
	onQP  int          // the span the running window belongs to
	mark  time.Time    // when it started
	swept int          // points the QP kernels visited
}

// flip charges the running window to its span and starts one on the
// other. A nil clock does nothing and never reads the time.
func (c *clock) flip() {
	if c == nil {
		return
	}
	c.span[c.onQP].AddSince(c.mark)
	c.onQP ^= 1
	c.mark = c.span[c.onQP].Begin()
}

// count adds the points a QP sweep visited. A nil clock does nothing: the
// count exists only to be published.
func (c *clock) count(swept int) {
	if c != nil {
		c.swept += swept
	}
}

// NewSweep returns a bare sweep over data and sym: QP off, unobserved.
// The tuners' trial compressions run on it.
func NewSweep(data []float64, sym []int32) *Sweep {
	return &Sweep{Data: data, Sym: sym}
}

// Sweep returns the compression sweep for src, with a predictor and a
// second index array when useQP is set, and starts its clock. The
// buffers are pooled (internal/quantizer) and come back with unspecified
// contents: the engine's sweeps must write every slot of Sym (and QP) —
// each point belongs to exactly one pass or class, or to the coarse
// lattice. Release it when done.
func (b *Backend) Sweep(src []float64, useQP bool, stage Stage) (*Sweep, error) {
	// Each pooled buffer passes through a local on its way into s: that is
	// the hand-off shape scdclint's poolreturn recognizes.
	s := &Sweep{}
	if useQP {
		var err error
		if s.Pred, err = NewPredictor(b.QP, b.Radius); err != nil {
			return nil, err
		}
		qp := quantizer.GetIndexBuf(len(src))
		s.QP = qp
	}
	data := quantizer.GetFloatBuf(len(src))
	copy(data, src)
	sym := quantizer.GetIndexBuf(len(src))
	s.Data, s.Sym = data, sym
	s.start(b.Obs, stage)
	return s, nil
}

// Release returns a compression sweep's scratch to the pools.
func (s *Sweep) Release() {
	quantizer.PutFloatBuf(s.Data)
	quantizer.PutIndexBuf(s.Sym)
	quantizer.PutIndexBuf(s.QP)
}

// Sweep allocates the output field, returns the decompression sweep that
// reconstructs into it from the blocks DecodeBlocks read, and starts its
// clock.
func (r *Reader) Sweep(stage Stage) *Sweep {
	// DecodeStream has checked the dims, New's only failure.
	field, _ := grid.New(r.dims...)
	s := &Sweep{Data: field.Data, Sym: r.Indices, Lits: r.Literals, Pred: r.pred, field: field}
	s.start(r.sp, stage)
	return s
}

// start opens the stage span, and the qp span of a sweep that runs QP,
// under sp and starts the clock on the stage.
func (s *Sweep) start(sp *obs.Span, stage Stage) {
	if sp == nil {
		return
	}
	s.clk = &clock{}
	s.clk.span[0] = sp.ChildAccum(string(stage))
	if s.Pred != nil {
		s.clk.span[1] = sp.ChildAccum("qp")
	}
	s.clk.mark = s.clk.span[0].Begin()
}

// finish stops the clock and publishes the sweeps' counters: the points
// of the field on the stage span, and on qp the points a QP kernel swept
// and how many of them it compensated.
func (s *Sweep) finish() {
	c := s.clk
	if c == nil {
		return
	}
	c.flip() // the stage's last window
	c.span[0].Add("points", int64(len(s.Data)))
	if s.Pred != nil {
		c.span[1].Add("compensated", int64(s.Pred.Compensated))
		c.span[1].Add("points", int64(c.swept))
	}
}

// Finish ends a decompression whose sweeps succeeded and returns the
// reconstructed field.
func (s *Sweep) Finish() *grid.Field {
	s.finish()
	return s.field
}

// ForwardQP transforms the symbols of rg once the engine has written
// them: the QP copy receives Sym minus the compensation predicted from
// the region's already-written neighbors. A no-op when QP is off.
func (s *Sweep) ForwardQP(rg Region) {
	if s.QP == nil {
		return
	}
	s.clk.flip()
	swept := s.Pred.ForwardRegion(s.Sym, s.QP, rg)
	s.clk.flip()
	s.clk.count(swept)
}

// InverseQP recovers the original symbols of rg in place, before the
// engine reconstructs the region's values. A no-op when the stream kept
// no QP.
func (s *Sweep) InverseQP(rg Region) {
	if s.Pred == nil {
		return
	}
	s.clk.flip()
	swept := s.Pred.InverseRegion(s.Sym, rg)
	s.clk.flip()
	s.clk.count(swept)
}

// Stamp stores the symbol of a point no QP region covers (an origin, the
// coarse lattice): it is its own QP transform.
func (s *Sweep) Stamp(idx int, sym int32) {
	s.Sym[idx] = sym
	if s.QP != nil {
		s.QP[idx] = sym
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
