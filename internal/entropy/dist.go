package entropy

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// neglog2 returns -log2(p) for p in (0, 1].
func neglog2(p float64) float64 { return -math.Log2(p) }

// This file is the decision substrate of the entropy stage: one
// histogram pass over a quantization index array yields a Dist, from which
// the Huffman size estimate (HuffmanBytes) and the Shannon statistics are
// derived without touching the array again. The encoders themselves
// (internal/huffman, and internal/rice for the benchmark) consume the same
// Dist so the decision pass is never repeated.

// Coder identifies the entropy coder of a quantization index stream.
// Huffman is the one encoder; the type survives as the label of the
// coder counter and as an argument of core.ChooseEncodingCoder.
type Coder byte

// CoderHuffman is the canonical Huffman coder (internal/huffman).
const CoderHuffman Coder = 0

// String implements fmt.Stringer.
func (c Coder) String() string {
	if c == CoderHuffman {
		return "huffman"
	}
	return fmt.Sprintf("coder(%d)", byte(c))
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

// ZigZag maps a signed residual to the unsigned Rice domain.
func ZigZag(delta int64) uint64 { return uint64((delta << 1) ^ (delta >> 63)) }
