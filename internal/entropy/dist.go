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

// lanes is the number of interleaved sub-histograms Analyze counts
// into. Consecutive symbols increment different counters, so a run of
// one symbol — nearly every symbol of a ~1-bit/value index array — waits
// on its own previous increment to leave the store buffer half as often
// (the store-forwarding stall zstd's HIST_count_parallel avoids the
// same way, with four). Two lanes of uint32 take the 8 bytes per symbol
// a single uint64 count did: four, at 16 bytes, counted the ~1-bit/value
// SZ3 array ~10 % faster but the ~10-bit/value MGARD one ~25 % slower
// (bench.IndexCells).
const lanes = 2

// maxLaneSymbols bounds the arrays the lane histogram counts: every
// count, and every sum of a symbol's lanes, then fits a uint32.
const maxLaneSymbols = 1<<32 - 1

// minWindow is the least slack of the first histogram window, and
// seedSamples how many evenly spaced symbols size it.
const (
	minWindow   = 256
	seedSamples = 1024
)

var lanePool = sync.Pool{New: func() any { return new([][lanes]uint32) }}

// countLanes adds the symbols of q to the lane histogram h, whose entry
// i counts symbol base+i, and returns how many it counted: all of q, or
// the prefix before the first symbol outside the window. Symbol k of
// every group of four goes to lane k%2.
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func countLanes(h [][lanes]uint32, q []int32, base int32) int {
	w, b := uint(len(h)), uint32(base)
	n := 0
	for len(q) >= 4 {
		i0, i1 := uint(uint32(q[0])-b), uint(uint32(q[1])-b)
		i2, i3 := uint(uint32(q[2])-b), uint(uint32(q[3])-b)
		if i0 >= w || i1 >= w || i2 >= w || i3 >= w {
			break
		}
		h[i0][0]++
		h[i1][1]++
		h[i2][0]++
		h[i3][1]++
		q = q[4:]
		n += 4
	}
	for _, v := range q {
		i := uint(uint32(v) - b)
		if i >= w {
			break
		}
		h[i][0]++
		n++
	}
	return n
}

// window returns the first symbol of a width-symbol window that holds
// lo..hi with the slack split around them, kept inside the int32 range.
func window(lo, hi, width int64) int32 {
	return int32(max(math.MinInt32, min(lo-(width-(hi-lo+1))/2, math.MaxInt32-width+1)))
}

// seedWindow sizes the pooled lane histogram *hp, zeroed, to the range of
// an evenly spaced sample of q plus a quarter and minWindow of slack, and
// returns its first symbol: most arrays then count in one pass. ok is
// false when the sample alone spans MaxDenseRange or more.
func seedWindow(hp *[][lanes]uint32, q []int32) (base int32, ok bool) {
	step := max(1, len(q)/seedSamples)
	lo, hi := int64(q[0]), int64(q[0])
	for i := 0; i < len(q); i += step {
		lo, hi = min(lo, int64(q[i])), max(hi, int64(q[i]))
	}
	need := hi - lo + 1
	if need > MaxDenseRange {
		return 0, false
	}
	width := min(need+need/4+minWindow, MaxDenseRange)
	if cap(*hp) < int(width) {
		*hp = make([][lanes]uint32, width)
	} else {
		*hp = (*hp)[:width]
		clear(*hp)
	}
	return window(lo, hi, width), true
}

// widen regrows the lane histogram *hp, whose entry i counts symbol
// base+i, to hold v as well — at least twice as wide, up to MaxDenseRange
// — moves the counts to their new entries and returns the new first
// symbol. ok is false when no dense window holds them both.
func widen(hp *[][lanes]uint32, base, v int32) (newBase int32, ok bool) {
	h := *hp
	lo := min(int64(base), int64(v))
	hi := max(int64(base)+int64(len(h))-1, int64(v))
	need := hi - lo + 1
	if need > MaxDenseRange {
		return base, false
	}
	width := max(need, min(int64(2*len(h)), MaxDenseRange))
	newBase = window(lo, hi, width)
	off := int(base - newBase)
	var g [][lanes]uint32
	if cap(h) >= int(width) {
		g = h[:width]
	} else {
		g = make([][lanes]uint32, width)
	}
	copy(g[off:], h)
	clear(g[:off])
	clear(g[off+len(h):])
	*hp = g
	return newBase, true
}

// countDense counts the non-empty q into the pooled lane histogram *hp
// and returns the symbol its entry 0 counts. ok is false when q is too
// long for uint32 lanes or its symbols span MaxDenseRange or more: the
// caller then counts sparsely.
func countDense(hp *[][lanes]uint32, q []int32) (base int32, ok bool) {
	if uint64(len(q)) > maxLaneSymbols {
		return 0, false
	}
	if base, ok = seedWindow(hp, q); !ok {
		return 0, false
	}
	for rest := q; ; {
		rest = rest[countLanes(*hp, rest, base):]
		if len(rest) == 0 {
			return base, true
		}
		if base, ok = widen(hp, base, rest[0]); !ok {
			return 0, false
		}
	}
}

// Analyze histograms q in one pass and returns its distribution. The
// symbols are counted into a dense window of lane counters sized from a
// sample and widened when a symbol falls outside it, so no range scan
// precedes the count; a symbol range of MaxDenseRange or more moves the
// count to a map. The Shannon accumulation visits symbols in ascending
// order so the float result never depends on map iteration order (the
// estimate feeds codec decisions; see DESIGN.md §8 streamdeterminism).
func Analyze(q []int32) *Dist {
	d := &Dist{N: len(q)}
	if len(q) == 0 {
		return d
	}
	hp := lanePool.Get().(*[][lanes]uint32)
	defer lanePool.Put(hp)
	base, ok := countDense(hp, q)
	if !ok {
		return analyzeSparse(d, q)
	}
	// Fold the lanes into lane 0 and find the symbol range, then size
	// Syms exactly.
	h := *hp
	first, last, distinct := -1, 0, 0
	for i := range h {
		c := h[i][0] + h[i][1]
		h[i][0] = c
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
			distinct++
		}
	}
	d.Syms = make([]SymCount, 0, distinct)
	for i := first; i <= last; i++ {
		if c := uint64(h[i][0]); c != 0 {
			d.Syms = append(d.Syms, SymCount{base + int32(i), c})
		}
	}
	d.total()
	return d
}

// total sets the range, the density and the Shannon total of d from its
// non-empty Syms, accumulating the information content in ascending
// symbol order. It is the one accumulation every Dist goes through, so a
// Dist that Shift derives equals the one Analyze counts, bit for bit.
func (d *Dist) total() {
	d.Lo, d.Hi = d.Syms[0].Sym, d.Syms[len(d.Syms)-1].Sym
	d.Dense = int64(d.Hi)-int64(d.Lo) < MaxDenseRange
	n := float64(d.N)
	for _, sc := range d.Syms {
		d.Bits += float64(sc.Count) * neglog2(float64(sc.Count)/n)
	}
}

// SymDelta is a signed change to the count of one symbol.
type SymDelta struct {
	Sym   int32
	Delta int64
}

// Shift returns the distribution of an array of d.N symbols whose counts
// are d's plus delta, without touching that array: the counts of the
// shared symbols are summed in one merge of the two ascending lists, and
// the rest follows from them as in Analyze. delta must hold distinct
// symbols in ascending order, and no resulting count may be negative;
// a symbol whose count reaches zero leaves Syms.
//
// The QP compressor histograms the transformed index array once and
// shifts its Dist by the moves the transform made to recover the
// original array's (core.Backend.Encode).
func (d *Dist) Shift(delta []SymDelta) *Dist {
	// Only a symbol whose count rises can be new to Syms.
	rise := 0
	for _, sd := range delta {
		if sd.Delta > 0 {
			rise++
		}
	}
	out := &Dist{N: d.N, Syms: make([]SymCount, 0, len(d.Syms)+rise)}
	syms := d.Syms
	for len(syms) > 0 || len(delta) > 0 {
		var sc SymCount
		switch {
		case len(delta) == 0 || len(syms) > 0 && syms[0].Sym < delta[0].Sym:
			sc, syms = syms[0], syms[1:]
		case len(syms) == 0 || delta[0].Sym < syms[0].Sym:
			sc = SymCount{delta[0].Sym, uint64(delta[0].Delta)}
			delta = delta[1:]
		default:
			sc = SymCount{syms[0].Sym, uint64(int64(syms[0].Count) + delta[0].Delta)}
			syms, delta = syms[1:], delta[1:]
		}
		if sc.Count != 0 {
			out.Syms = append(out.Syms, sc)
		}
	}
	if len(out.Syms) > 0 {
		out.total()
	}
	return out
}

// analyzeSparse counts q, whose symbol range is too wide for a dense
// table, into a map and collects the counts in ascending symbol order
// (sorted key prelude), so both the symbol table and the float
// accumulation are deterministic.
func analyzeSparse(d *Dist, q []int32) *Dist {
	m := make(map[int32]uint64)
	for _, v := range q {
		m[v]++
	}
	syms := make([]int32, 0, len(m))
	for s := range m {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	d.Syms = make([]SymCount, 0, len(m))
	for _, s := range syms {
		c := m[s]
		d.Syms = append(d.Syms, SymCount{s, c})
	}
	d.total()
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
