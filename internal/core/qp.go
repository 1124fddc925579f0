// Package core implements the paper's primary contribution: adaptive
// Quantization index Prediction (QP).
//
// QP is a reversible transform f applied to the quantization index array Q
// produced by an interpolation-based compressor, chosen to minimize the
// Shannon entropy H(f(Q)) (Section V-A). The transform predicts each index
// from previously processed indices with a Lorenzo predictor and stores the
// difference:
//
//	compress:   Q'[i] = Q[i] - quant_pred(Q[0:i-1])
//	decompress: Q[i]  = Q'[i] + quant_pred(Q[0:i-1])
//
// Because prediction only reads indices that the decompressor has already
// recovered, f is exactly reversible and the decompressed data is
// bit-identical to the base compressor's output.
//
// The package exposes the full configuration space explored in Section V-C
// — prediction dimension (Figure 7), prediction condition (Figure 8), and
// start level (Figure 9) — with the paper's best-fit configuration
// (2D Lorenzo, Case III, levels 1–2) as the default.
package core

import (
	"fmt"

	"scdc/internal/quantizer"
	"scdc/internal/verdict"
)

// Mode selects the prediction dimension (paper Figure 7).
type Mode byte

const (
	// ModeOff disables QP.
	ModeOff Mode = iota
	// Mode1DBack predicts from the previous index along the interpolation
	// direction. The paper shows this performs worst: the points are not
	// contiguous along that direction when processed level-wise.
	Mode1DBack
	// Mode1DTop predicts from the in-plane neighbor along the slower
	// orthogonal axis.
	Mode1DTop
	// Mode1DLeft predicts from the in-plane neighbor along the faster
	// orthogonal axis.
	Mode1DLeft
	// Mode2D is 2D Lorenzo in the plane orthogonal to the interpolation
	// direction — the paper's best-fit choice.
	Mode2D
	// Mode3D is 3D Lorenzo including the interpolation direction.
	Mode3D
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case Mode1DBack:
		return "1D-Back"
	case Mode1DTop:
		return "1D-Top"
	case Mode1DLeft:
		return "1D-Left"
	case Mode2D:
		return "2D"
	case Mode3D:
		return "3D"
	default:
		return fmt.Sprintf("mode(%d)", byte(m))
	}
}

// Cond selects the prediction condition (paper Figure 8).
type Cond byte

const (
	// CondAlways is Case I: predict everywhere, even across unpredictable
	// neighbors (whose stored marker then poisons the prediction — the
	// degradation the paper observes at small error bounds).
	CondAlways Cond = iota
	// CondSkipUnpredictable is Case II: skip when any involved neighbor is
	// the unpredictable marker.
	CondSkipUnpredictable
	// CondSameSign2 is Case III: Case II plus the left and top neighbors
	// must have the same (nonzero) sign. The paper's best-fit choice.
	CondSameSign2
	// CondSameSign3 is Case IV: Case II plus all three neighbors must share
	// the same (nonzero) sign. Too conservative per the paper.
	CondSameSign3
)

// String implements fmt.Stringer.
func (c Cond) String() string {
	switch c {
	case CondAlways:
		return "case-I"
	case CondSkipUnpredictable:
		return "case-II"
	case CondSameSign2:
		return "case-III"
	case CondSameSign3:
		return "case-IV"
	default:
		return fmt.Sprintf("cond(%d)", byte(c))
	}
}

// Config is a QP configuration. The zero value disables QP.
type Config struct {
	Mode Mode
	Cond Cond
	// MaxLevel restricts prediction to interpolation levels <= MaxLevel
	// (level 1 = stride 1). Levels 1 and 2 hold over 98% of the points
	// (Figure 9). MaxLevel <= 0 means no restriction.
	MaxLevel int
}

// Default returns the paper's best-fit configuration (Algorithm 2):
// 2D Lorenzo, Case III, levels 1 and 2.
func Default() Config {
	return Config{Mode: Mode2D, Cond: CondSameSign2, MaxLevel: 2}
}

// Enabled reports whether the configuration performs any prediction.
func (c Config) Enabled() bool { return c.Mode != ModeOff }

// valid reports whether the mode and the condition are defined values.
func (c Config) valid() bool { return c.Mode <= Mode3D && c.Cond <= CondSameSign3 }

// Validate checks a configuration a caller supplied.
func (c Config) Validate() error {
	if !c.valid() {
		return fmt.Errorf("%w: core: unknown QP mode %d or condition %d", verdict.ErrBadOptions, c.Mode, c.Cond)
	}
	return nil
}

// Neighborhood carries the flat indexes of the already-processed neighbors
// of the current point within the quantization index array, with -1
// marking a neighbor that does not exist (outside the lattice or not yet
// processed). Left/Top span the plane orthogonal to the current
// interpolation direction; Back is the previous point along the
// interpolation direction; the remaining fields are the corner points
// required by 3D Lorenzo.
type Neighborhood struct {
	Level                                int
	Left, Top, TopLeft                   int
	Back, BackLeft, BackTop, BackTopLeft int
}

// Predictor applies QP with a fixed configuration to a quantization index
// array whose stored symbols are offset by Radius, with symbol
// quantizer.Unpredictable reserved for out-of-range points.
type Predictor struct {
	Cfg    Config
	Radius int32
	// Compensated counts the points where a nonzero prediction was applied;
	// useful for the overhead analysis of Figures 16–17.
	Compensated int
}

// NewPredictor constructs a Predictor. radius must match the quantizer's.
func NewPredictor(cfg Config, radius int32) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{Cfg: cfg, Radius: radius}, nil
}

// centered converts a stored symbol to the signed quantization index.
// The unpredictable marker maps to -Radius, which is exactly the poisoned
// value Case I suffers from.
func (p *Predictor) centered(sym int32) int32 { return sym - p.Radius }

// Compensate implements Algorithm 2 generalized over the configuration
// space. It returns the compensation c to subtract from (compression) or
// add to (decompression) the current stored symbol. q holds stored symbols
// for already-processed points (original indices Q, not the transformed
// Q').
func (p *Predictor) Compensate(q []int32, nb Neighborhood) int32 {
	cfg := p.Cfg
	if cfg.Mode == ModeOff {
		return 0
	}
	if cfg.MaxLevel > 0 && nb.Level > cfg.MaxLevel {
		return 0
	}

	get := func(idx int) (int32, bool) {
		if idx < 0 {
			return 0, false
		}
		return q[idx], true
	}

	var c int32
	switch cfg.Mode {
	case Mode1DBack:
		s, ok := get(nb.Back)
		if !ok || !p.allow1(s) {
			return 0
		}
		c = p.centered(s)
	case Mode1DTop:
		s, ok := get(nb.Top)
		if !ok || !p.allow1(s) {
			return 0
		}
		c = p.centered(s)
	case Mode1DLeft:
		s, ok := get(nb.Left)
		if !ok || !p.allow1(s) {
			return 0
		}
		c = p.centered(s)
	case Mode2D:
		a, okA := get(nb.Left)
		b, okB := get(nb.Top)
		ab, okAB := get(nb.TopLeft)
		if !okA || !okB || !okAB || !p.allow2(a, b, ab) {
			return 0
		}
		c = p.centered(a) + p.centered(b) - p.centered(ab)
	case Mode3D:
		a, okA := get(nb.Left)
		b, okB := get(nb.Top)
		d, okD := get(nb.Back)
		ab, okAB := get(nb.TopLeft)
		ad, okAD := get(nb.BackLeft)
		bd, okBD := get(nb.BackTop)
		abd, okABD := get(nb.BackTopLeft)
		if !okA || !okB || !okD || !okAB || !okAD || !okBD || !okABD {
			return 0
		}
		if !p.allow3(a, b, d, ab, ad, bd, abd) {
			return 0
		}
		c = p.centered(a) + p.centered(b) + p.centered(d) -
			p.centered(ab) - p.centered(ad) - p.centered(bd) +
			p.centered(abd)
	}
	if c != 0 {
		p.Compensated++
	}
	return c
}

// allow1 evaluates the condition cases for single-neighbor modes. Case III
// and IV degenerate to requiring a predictable neighbor with nonzero sign.
func (p *Predictor) allow1(s int32) bool {
	switch p.Cfg.Cond {
	case CondAlways:
		return true
	case CondSkipUnpredictable:
		return s != quantizer.Unpredictable
	default: // CondSameSign2, CondSameSign3
		return s != quantizer.Unpredictable && p.centered(s) != 0
	}
}

// allow2 evaluates the condition cases for 2D Lorenzo (Algorithm 2 lines
// 4–5).
func (p *Predictor) allow2(a, b, ab int32) bool {
	switch p.Cfg.Cond {
	case CondAlways:
		return true
	case CondSkipUnpredictable:
		return nonUnpred(a, b, ab)
	case CondSameSign2:
		if !nonUnpred(a, b, ab) {
			return false
		}
		ca, cb := p.centered(a), p.centered(b)
		return (ca > 0 && cb > 0) || (ca < 0 && cb < 0)
	default: // CondSameSign3
		if !nonUnpred(a, b, ab) {
			return false
		}
		ca, cb, cab := p.centered(a), p.centered(b), p.centered(ab)
		return (ca > 0 && cb > 0 && cab > 0) || (ca < 0 && cb < 0 && cab < 0)
	}
}

// allow3 evaluates the condition cases for 3D Lorenzo. The sign conditions
// use the in-plane neighbors as in the 2D case (plus the back neighbor for
// Case IV), mirroring Algorithm 2's structure.
func (p *Predictor) allow3(a, b, d, ab, ad, bd, abd int32) bool {
	switch p.Cfg.Cond {
	case CondAlways:
		return true
	case CondSkipUnpredictable:
		return nonUnpred(a, b, d, ab, ad, bd, abd)
	case CondSameSign2:
		if !nonUnpred(a, b, d, ab, ad, bd, abd) {
			return false
		}
		ca, cb := p.centered(a), p.centered(b)
		return (ca > 0 && cb > 0) || (ca < 0 && cb < 0)
	default: // CondSameSign3
		if !nonUnpred(a, b, d, ab, ad, bd, abd) {
			return false
		}
		ca, cb, cd := p.centered(a), p.centered(b), p.centered(d)
		return (ca > 0 && cb > 0 && cd > 0) || (ca < 0 && cb < 0 && cd < 0)
	}
}

// nonUnpred reports whether none of syms is the unpredictable marker.
func nonUnpred(syms ...int32) bool {
	for _, s := range syms {
		if s == quantizer.Unpredictable {
			return false
		}
	}
	return true
}
