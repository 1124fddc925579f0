package core

import (
	"cmp"
	"slices"
	"sync"

	"scdc/internal/entropy"
)

// moveWindow is the widest moves histogram, centered on the radius: a
// compensation moves a symbol by the Lorenzo residual of its neighbors,
// so nearly every move of a predictable point starts and ends near the
// radius. On the wide alphabet of MGARD at rel 2e-5 (~10 bits/value,
// symbols over most of [0, 2^16)), 4 096 counters let 8 920 of 681 472
// points overflow and 16 384 let 95. A field of fewer points gets as many
// counters as it has points, so the record never costs more than 8 B a
// point.
const moveWindow = 1 << 14

// moves is the record the forward QP sweeps of one compression keep of
// what they did to the symbol array. The forward transforms Sym in place,
// so the original symbols q are gone once it has run; the entropy stage
// needs q back only to price the QP-off candidate, and rarely (QP
// dropped) to encode it. The record answers both without a second array:
// the histogram of q is that of the transformed array plus the moves
// (shift), and q itself is the inverse sweep over the recorded regions
// (Sweep.restore).
type moves struct {
	lo int32 // the symbol h[0] counts
	// h[s-lo] is the number of compensated points that left symbol s
	// minus the number that arrived at it.
	h []int64
	// over holds the moves with an end outside h, {from, to} each: a
	// compensated unpredictable point (symbol 0) leaves from far below
	// the radius. The pooled record keeps its capacity, so its growth is
	// amortised over calls rather than paid per point (TestSweepAllocs).
	over [][2]int32
	// regions lists the regions a kernel swept, in sweep order.
	regions []Region
}

var movesPool = sync.Pool{New: func() any {
	return &moves{regions: make([]Region, 0, 64)}
}}

// getMoves returns an empty pooled record for the n symbols of a field,
// offset by radius (Normalize keeps it in [2, 2^30], so the window stays
// inside int32).
func getMoves(radius int32, n int) *moves {
	m := movesPool.Get().(*moves)
	w := min(n, moveWindow)
	if cap(m.h) < w {
		m.h = make([]int64, w)
	} else {
		m.h = m.h[:w]
		clear(m.h)
	}
	m.lo = radius - int32(w/2)
	m.over, m.regions = m.over[:0], m.regions[:0]
	return m
}

// putMoves recycles a record from getMoves; nil is a no-op.
func putMoves(m *moves) {
	if m != nil {
		movesPool.Put(m)
	}
}

// add records that a compensated point moved from symbol from to symbol
// to. The window test is countLanes': a symbol's distance above lo,
// wrapped to 32 bits, is below the width exactly when it lies in h (the
// wrapping int32 difference has the same bits as the uint32 one). The
// distances are compared as ints against h's length, which proves both
// indexes in bounds. A move outside the window appends to over.
//
//scdc:inline
//scdc:noalloc
func (m *moves) add(from, to int32) {
	if h, i, k := m.h, int(uint32(from-m.lo)), int(uint32(to-m.lo)); i < len(h) && k < len(h) {
		h[i]++
		h[k]--
	} else {
		m.over = append(m.over, [2]int32{from, to})
	}
}

// shift returns the distribution of the symbols before the recorded
// moves, given d, the distribution of the array after them. The overflow
// becomes one sorted list of +1 (symbol left) and -1 (symbol arrived at)
// entries, and one loop merges it with the window's counters, summing the
// entries of a symbol into one delta.
func (m *moves) shift(d *entropy.Dist) *entropy.Dist {
	over := make([]entropy.SymDelta, 0, 2*len(m.over))
	for _, mv := range m.over {
		over = append(over, entropy.SymDelta{Sym: mv[0], Delta: 1}, entropy.SymDelta{Sym: mv[1], Delta: -1})
	}
	slices.SortFunc(over, func(a, b entropy.SymDelta) int { return cmp.Compare(a.Sym, b.Sym) })
	nz := len(over)
	for _, c := range m.h {
		if c != 0 {
			nz++
		}
	}
	delta := make([]entropy.SymDelta, 0, nz)
	push := func(sd entropy.SymDelta) {
		if k := len(delta) - 1; k >= 0 && delta[k].Sym == sd.Sym {
			delta[k].Delta += sd.Delta
		} else {
			delta = append(delta, sd)
		}
	}
	for i, c := range m.h {
		s := m.lo + int32(i)
		for ; len(over) > 0 && over[0].Sym < s; over = over[1:] {
			push(over[0])
		}
		if c != 0 {
			push(entropy.SymDelta{Sym: s, Delta: c})
		}
	}
	for _, sd := range over {
		push(sd)
	}
	return d.Shift(delta)
}
