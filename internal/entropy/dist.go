package entropy

import (
	"fmt"
	"math"
	mbits "math/bits"
	"slices"
	"sync"

	"scdc/internal/verdict"
)

// neglog2 returns -log2(p) for p in (0, 1].
func neglog2(p float64) float64 { return -math.Log2(p) }

// This file is the coder-decision substrate of the entropy stage: one
// histogram pass over a quantization index array yields a Dist, from which
// the per-coder size estimators (HuffmanBytes, RiceBytes) and the Shannon
// statistics are all derived without touching the array again. The
// encoders themselves (internal/huffman, internal/rice) consume the same
// Dist so the decision pass is never repeated.

// Coder identifies an entropy coder for quantization index streams.
type Coder byte

const (
	// CoderHuffman is the canonical Huffman coder (internal/huffman), the
	// legacy default every earlier stream uses.
	CoderHuffman Coder = iota
	// CoderAuto picks the cheapest coder per stream from the Dist-based
	// size estimates.
	CoderAuto
	// CoderRice is the adaptive Golomb-Rice coder with the low-entropy
	// run/escape sub-mode (internal/rice).
	CoderRice
	numCoders
)

var coderNames = [...]string{"huffman", "auto", "rice"}

// String implements fmt.Stringer.
func (c Coder) String() string {
	if int(c) < len(coderNames) {
		return coderNames[c]
	}
	return fmt.Sprintf("coder(%d)", byte(c))
}

// Valid reports whether c is a defined coder value.
func (c Coder) Valid() bool { return c < numCoders }

// ParseCoder resolves a lower-case coder name ("huffman", "auto", "rice").
func ParseCoder(name string) (Coder, error) {
	for i, n := range coderNames {
		if n == name {
			return Coder(i), nil
		}
	}
	return 0, fmt.Errorf("%w: entropy: unknown coder %q", verdict.ErrBadOptions, name)
}

// SymCount is one distinct symbol with its occurrence count.
type SymCount struct {
	Sym   int32
	Count uint64
}

// Dist is the symbol distribution of an index array: the distinct symbols
// in ascending order with counts, the symbol range, and the total Shannon
// information content. It is computed in one pass by Analyze and shared by
// the coder decision and the encoders.
type Dist struct {
	// N is the total number of symbols analyzed.
	N int
	// Syms holds the distinct symbols in ascending order.
	Syms []SymCount
	// Lo and Hi are the minimum and maximum symbol (valid when N > 0).
	Lo, Hi int32
	// Dense reports whether the symbol range is narrow enough for
	// flat-array histogram and code tables (range < MaxDenseRange).
	Dense bool
	// Bits is the total Shannon information content of the array:
	// sum over symbols of count * -log2(count/N).
	Bits float64
}

// MaxDenseRange bounds dense histogram/code tables (16 MiB of counts).
const MaxDenseRange = 1 << 21

var countPool = sync.Pool{New: func() any { return new([]uint64) }}

// getCountBuf returns a zeroed pooled histogram buffer of length n.
func getCountBuf(n int) []uint64 {
	p := countPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
		return *p
	}
	s := (*p)[:n]
	clear(s)
	return s
}

func putCountBuf(buf []uint64) {
	buf = buf[:cap(buf)]
	countPool.Put(&buf)
}

// Range scans q once and reports (min, max, dense) where dense means the
// flat-array paths apply.
func Range(q []int32) (lo, hi int32, dense bool) {
	if len(q) == 0 {
		return 0, 0, false
	}
	lo, hi = q[0], q[0]
	for _, v := range q {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, int64(hi)-int64(lo) < MaxDenseRange
}

// Analyze histograms q in one pass and returns its distribution. The
// Shannon accumulation visits symbols in ascending order so the float
// result never depends on map iteration order (the estimate feeds codec
// decisions; see DESIGN.md §8 streamdeterminism).
func Analyze(q []int32) *Dist {
	d := &Dist{N: len(q)}
	if len(q) == 0 {
		return d
	}
	d.Lo, d.Hi, d.Dense = Range(q)
	if d.Dense {
		counts := getCountBuf(int(d.Hi-d.Lo) + 1)
		for _, v := range q {
			counts[v-d.Lo]++
		}
		d.Syms = make([]SymCount, 0, 64)
		n := float64(len(q))
		for i, c := range counts {
			if c == 0 {
				continue
			}
			d.Syms = append(d.Syms, SymCount{d.Lo + int32(i), c})
			p := float64(c) / n
			d.Bits += float64(c) * neglog2(p)
		}
		putCountBuf(counts)
		return d
	}
	m := make(map[int32]uint64)
	for _, v := range q {
		m[v]++
	}
	// Collect in ascending symbol order (sorted key prelude) so both the
	// symbol table and the float accumulation are deterministic.
	syms := make([]int32, 0, len(m))
	for s := range m {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	d.Syms = make([]SymCount, 0, len(m))
	n := float64(len(q))
	for _, s := range syms {
		c := m[s]
		d.Syms = append(d.Syms, SymCount{s, c})
		p := float64(c) / n
		d.Bits += float64(c) * neglog2(p)
	}
	return d
}

// Distinct returns the number of distinct symbols.
func (d *Dist) Distinct() int { return len(d.Syms) }

// EntropyBits returns the Shannon entropy in bits per symbol.
func (d *Dist) EntropyBits() float64 {
	if d.N == 0 {
		return 0
	}
	return d.Bits / float64(d.N)
}

// HuffmanBytes estimates the canonical-Huffman encoded size: the Shannon
// bound for the body plus the varint table header. The formula is the
// long-standing QP-fallback estimate (accurate to a fraction of a percent
// on skewed index distributions).
func (d *Dist) HuffmanBytes() int {
	if d.N == 0 {
		return 2
	}
	return int(d.Bits/8) + len(d.Syms)*3 + 16
}

// Center returns the modal symbol (ties break to the smallest), the
// reference the Rice coder maps residuals against.
func (d *Dist) Center() int32 {
	var center int32
	var best uint64
	for _, sc := range d.Syms {
		if sc.Count > best {
			best = sc.Count
			center = sc.Sym
		}
	}
	return center
}

// Rice code-shape constants, shared with internal/rice so the estimate
// prices exactly the codes the encoder emits.
const (
	// RiceMaxK bounds the Golomb-Rice parameter.
	RiceMaxK = 31
	// RiceEscapeQuot is the unary quotient length that escapes to a raw
	// 32-bit literal symbol.
	RiceEscapeQuot = 24
	// RiceBlock is the adaptive block length in symbols.
	RiceBlock = 256
)

// RiceCodeBits prices one Golomb-Rice code of mapped value m at
// parameter k, including the escape to a 32-bit literal. internal/rice
// emits exactly these code shapes, so the estimate and the encoder can
// never disagree on per-code cost.
func RiceCodeBits(m uint64, k uint) int {
	if q := m >> k; q < RiceEscapeQuot {
		return int(q) + 1 + int(k)
	}
	return RiceEscapeQuot + 32
}

// ZigZag maps a signed residual to the unsigned Rice domain.
func ZigZag(delta int64) uint64 { return uint64((delta << 1) ^ (delta >> 63)) }

// RiceBytes estimates the Golomb-Rice encoded size of the distribution as
// the cheaper of the coder's two payload modes, priced from the histogram
// alone: plain rice (the best single k over the zigzag-mapped residuals
// against Center) and run/escape (rice codes for the non-center literals
// plus one Elias-gamma run code per literal, assuming the center symbols
// intersperse the literals uniformly — the pessimistic run structure).
// Per-block mode/parameter overhead rides on top. The encoder adapts k
// and mode per block, so the real stream is usually a little smaller.
func (d *Dist) RiceBytes() int {
	if d.N == 0 {
		return 8
	}
	center := int64(d.Center())

	// Mode 1: one rice code per symbol at the best single k.
	riceBits := int(^uint(0) >> 1)
	for k := uint(0); k <= RiceMaxK; k++ {
		bits := 0
		for _, sc := range d.Syms {
			bits += int(sc.Count) * RiceCodeBits(ZigZag(int64(sc.Sym)-center), k)
		}
		if bits < riceBits {
			riceBits = bits
		}
	}

	// Mode 2: rice codes of m-1 for the literals at the best single k,
	// plus one gamma run code per literal at the average run length.
	litBits := int(^uint(0) >> 1)
	literals := 0
	for k := uint(0); k <= RiceMaxK; k++ {
		bits, lits := 0, 0
		for _, sc := range d.Syms {
			m := ZigZag(int64(sc.Sym) - center)
			if m == 0 {
				continue
			}
			bits += int(sc.Count) * RiceCodeBits(m-1, k)
			lits += int(sc.Count)
		}
		literals = lits
		if bits < litBits {
			litBits = bits
		}
	}
	runBits := 0
	if literals > 0 {
		avgRun := (d.N - literals) / literals
		runBits = literals * (2*(mbits.Len(uint(avgRun+1))-1) + 1)
	} else {
		litBits = 0 // all-center: mode 0 blocks carry no payload
	}

	bits := riceBits
	if rb := litBits + runBits; rb < bits {
		bits = rb
	}
	blocks := (d.N + RiceBlock - 1) / RiceBlock
	return bits/8 + blocks + 16
}

// huffmanFloor is the hard lower bound on a real canonical-Huffman body:
// one bit per symbol once two symbols exist. HuffmanBytes itself stays
// the legacy Shannon-bound estimate (the QP-vs-plain decision under
// CoderHuffman is pinned to it and golden streams depend on that), so
// the floor only sharpens the auto coder choice, where the Shannon bound
// wildly underestimates Huffman on near-constant streams.
func (d *Dist) huffmanFloor() int {
	if len(d.Syms) < 2 {
		return 0
	}
	return d.N / 8
}

// AutoCoder resolves CoderAuto to the concrete coder with the smaller
// size estimate. Ties go to Huffman, the legacy default.
func (d *Dist) AutoCoder() Coder {
	h := d.HuffmanBytes()
	if f := d.huffmanFloor(); f > h {
		h = f
	}
	if d.RiceBytes() < h {
		return CoderRice
	}
	return CoderHuffman
}

// EstimateBytes returns the estimated encoded size of the distribution
// under the given coder (CoderAuto resolves to the cheaper concrete
// coder first).
func (d *Dist) EstimateBytes(c Coder) int {
	switch c {
	case CoderRice:
		return d.RiceBytes()
	case CoderAuto:
		return d.EstimateBytes(d.AutoCoder())
	default:
		return d.HuffmanBytes()
	}
}
