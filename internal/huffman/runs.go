package huffman

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

// Run-coded sub-format: a Huffman code cannot spend less than one bit on
// a symbol, so an index array piled onto one modal symbol (QP's whole
// effect) sits far above its entropy in the plain layout. Here the runs
// of the modal symbol are written instead, as bijective base-2 digits —
// bzip2's RUNA/RUNB: a run of r ≥ 1 is the digits d_i ∈ {1, 2} with
// r = Σ d_i·2^i, least significant first — and the two digit symbols
// are two more entries of the one canonical table. Every other symbol is
// coded as in the plain layout, and the modal symbol itself is never
// coded.
//
// Layout:
//
//	0x00                      marker (as the sharded sub-format)
//	0x03                      sub-format version
//	uvarint(hdrLen) hdr       uvarint(n) total symbols, uvarint(m) coded
//	                          symbols (m ≤ n), varint(modal), varint(runA),
//	                          then the table as in the plain header (table
//	                          size, zigzag delta symbol/length pairs)
//	body                      m codes, MSB-first, zero-padded
//
// The digit symbols are runA (digit 1) and runA+1 (digit 2), the two
// values just below the array's smallest symbol, so they never collide
// with a real one. EncodeDist writes this layout when the modal symbol
// has probability above ½ and the run-coded stream, priced exactly from
// its own histogram, is smaller than the plain one; the choice depends
// only on the array. An array whose smallest symbol is within 2 of
// MinInt32, whose range with the digits reaches entropy.MaxDenseRange, or
// whose run-coded table would hold a code over packedMaxLen bits stays
// plain. The header is read by the one index-block reader (parseBlock),
// and the block decodes through expandFast, or decodeSingle alone, and
// expandRuns (block.decodeBody).
const runVersion = 0x03

// runChunk is how many digits one entry of runScratch.tab holds: a run
// r < 2^(runChunk+1)-1 is one table lookup, a longer one is written a
// digit at a time.
const runChunk = 8

// maxRunDigits bounds the digits of one run, so the decoder's run
// length cannot overflow 64 bits: 62 digits stand for less than 2^63
// points.
const maxRunDigits = 62

// fillWidth is how many modal points expandFast stores at a time.
const fillWidth = 16

// maxUncountedRunSamples is how many symbols Decode, told no count,
// trusts a run-coded stream to declare beyond the plain layout's 8 per
// body byte: runs make the body logarithmic in their length.
const maxUncountedRunSamples = 1 << 24

// runScratch is the pooled working memory of one run-coded encode: the
// non-modal mask, one bit per symbol, and the concatenated digit codes
// of every x = run+1 below 2^(runChunk+1), code << 8 | length, 0 where
// they would not fit a packed word.
type runScratch struct {
	mask []uint64
	tab  [2 << runChunk]uint64
}

var runPool = sync.Pool{New: func() any { return new(runScratch) }}

// runPlan is the run-coded stream of one array: its code table over the
// run-coded histogram and the size the stream takes.
type runPlan struct {
	modal, runA int32
	m           int
	table       []symLen
	bodyBits    uint64
	hdrLen      int
	size        int
}

// runCandidate returns d's modal symbol (the smallest of equal counts)
// and whether the array may be run-coded: the modal symbol has
// probability above ½, and the digit symbols fit below the smallest
// symbol of a dense code range.
func runCandidate(d *entropy.Dist) (modal int32, ok bool) {
	if d.N == 0 || d.Lo < math.MinInt32+2 || int64(d.Hi)-int64(d.Lo)+2 >= entropy.MaxDenseRange {
		return 0, false
	}
	var most uint64
	for _, s := range d.Syms {
		if s.Count > most {
			most, modal = s.Count, s.Sym
		}
	}
	return modal, 2*most > uint64(d.N)
}

// planRuns prices the run-coded stream of the array d describes, whose
// runs of modal spend a RUNA and b RUNB digits, and reports whether
// EncodeDist writes it: it is smaller than the plain layout, and every
// code fits a packed word (encodeRuns has no map fallback).
func planRuns(d *entropy.Dist, modal int32, a, b uint64) (p runPlan, ok bool) {
	p.modal, p.runA = modal, d.Lo-2
	rd := &entropy.Dist{Syms: make([]entropy.SymCount, 0, len(d.Syms)+1)}
	for i, c := range [2]uint64{a, b} {
		if c > 0 {
			rd.Syms = append(rd.Syms, entropy.SymCount{Sym: p.runA + int32(i), Count: c})
		}
	}
	for _, s := range d.Syms {
		if s.Sym != modal {
			rd.Syms = append(rd.Syms, s)
		}
	}
	for _, s := range rd.Syms {
		p.m += int(s.Count)
	}
	p.table, p.bodyBits = codeLengths(rd)
	p.hdrLen = uvarintLen(uint64(d.N)) + uvarintLen(uint64(p.m)) + varintLen(int64(modal)) + varintLen(int64(p.runA)) + tableLen(p.table)
	p.size = 2 + uvarintLen(uint64(p.hdrLen)) + p.hdrLen + int((p.bodyBits+7)/8)
	return p, p.size < encodedLen(d) && p.table[len(p.table)-1].len <= packedMaxLen
}

// varintLen is the length of x's varint encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// runDigits returns how many RUNA and RUNB digits a run of r takes (none
// for r = 0): x = r+1 in binary is a leading one above one bit per digit,
// 0 for RUNA and 1 for RUNB.
//
//scdc:inline
func runDigits(r uint64) (a, b uint64) {
	x := r + 1
	k := uint64(bits.Len64(x) - 1)
	b = uint64(bits.OnesCount64(x) - 1)
	return k - b, b
}

// scanRuns is the first encode pass: it counts the digits the runs of
// modal in q take, and, when mask is non-nil, sets bit i%64 of mask[i/64]
// for every symbol q[i] that is not modal. mask holds ⌈len(q)/64⌉ words.
// A word is built eight symbols at a time, each bit without a branch.
//
//scdc:hot
//scdc:noalloc
func scanRuns(q []int32, modal int32, mask []uint64) (a, b uint64) {
	var run uint64
	for k := 0; len(q) > 0; k++ {
		blk := q[:min(64, len(q))]
		q = q[len(blk):]
		var w uint64
		i := 0
		for ; len(blk)-i >= 8; i += 8 {
			g := (*[8]int32)(blk[i:])
			x := differs(g[0], modal) | differs(g[1], modal)<<1 | differs(g[2], modal)<<2 | differs(g[3], modal)<<3 |
				differs(g[4], modal)<<4 | differs(g[5], modal)<<5 | differs(g[6], modal)<<6 | differs(g[7], modal)<<7
			w |= x << uint(i)
		}
		for ; i < len(blk); i++ {
			w |= differs(blk[i], modal) << uint(i)
		}
		if mask != nil {
			mask[k] = w
		}
		left := uint64(len(blk))
		for w != 0 {
			tz := uint64(bits.TrailingZeros64(w))
			ra, rb := runDigits(run + tz)
			a, b, run = a+ra, b+rb, 0
			w >>= tz + 1
			left -= tz + 1
		}
		run += left
	}
	ra, rb := runDigits(run)
	return a + ra, b + rb
}

// differs is 1 if v != modal and 0 otherwise, without a branch: the
// 32-bit difference is nonzero exactly when adding 2^32-1 carries.
//
//scdc:inline
func differs(v, modal int32) uint64 {
	return (uint64(uint32(v^modal)) + 1<<32 - 1) >> 32
}

// encodeRuns is the second encode pass: it appends the run-coded body of
// q to dst, walking the set bits of scanRuns' mask. The modal symbols
// between two set bits are one run, written from tab (putRun past it);
// each set bit's symbol takes its code from packed. The bits are those of
// the plain kernel's accumulator.
//
//scdc:hot
//scdc:noalloc
func encodeRuns(dst []byte, q []int32, mask []uint64, packed []uint64, lo int32, tab *[2 << runChunk]uint64) []byte {
	var acc uint64
	var nbit uint
	last := -1 // the previous non-modal symbol
	for k, w := range mask {
		for w != 0 {
			i := k<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			if x := uint(i - last); x > 1 {
				// A run of x-1: one entry of tab, or putRun.
				var e uint64
				if x < uint(len(tab)) {
					e = tab[x]
				}
				if c, l := e>>8, uint(e&255); e != 0 && nbit+l < 64 {
					acc, nbit = acc<<l|c, nbit+l
				} else {
					dst, acc, nbit = putRun(dst, acc, nbit, uint64(x-1), tab)
				}
			}
			last = i
			e := packed[q[i]-lo]
			if c, l := e>>8, uint(e&255); nbit+l < 64 {
				acc, nbit = acc<<l|c, nbit+l
			} else {
				dst, acc, nbit = spill(dst, acc, nbit, c, l)
			}
		}
	}
	if r := len(q) - last - 1; r > 0 {
		dst, acc, nbit = putRun(dst, acc, nbit, uint64(r), tab)
	}
	return flushTail(dst, acc, nbit)
}

// putRun writes the digits of a run of r ≥ 1 through the accumulator,
// one digit at a time: tab[2] holds RUNA and tab[3] RUNB.
func putRun(dst []byte, acc uint64, nbit uint, r uint64, tab *[2 << runChunk]uint64) ([]byte, uint64, uint) {
	for x := r + 1; x > 1; x >>= 1 {
		dst, acc, nbit = putCode(dst, acc, nbit, tab[2|x&1])
	}
	return dst, acc, nbit
}

// putCode writes one packed code << 8 | length through the accumulator.
func putCode(dst []byte, acc uint64, nbit uint, e uint64) ([]byte, uint64, uint) {
	if c, l := e>>8, uint(e&255); nbit+l < 64 {
		return dst, acc<<l | c, nbit + l
	}
	return spill(dst, acc, nbit, e>>8, uint(e&255))
}

// spill completes the accumulator's word with the top bits of code c of
// l bits and starts the next one with the rest.
func spill(dst []byte, acc uint64, nbit uint, c uint64, l uint) ([]byte, uint64, uint) {
	space := 64 - nbit
	rem := l - space
	dst = binary.BigEndian.AppendUint64(dst, acc<<space|c>>rem)
	return dst, c & (1<<rem - 1), rem
}

// buildRunTab fills tab from the digit codes of cs: entry x ≥ 2 holds
// the digits of x's bits below its leading one, least significant first,
// as one code, or 0 if a digit is absent or they would not fit a packed
// word. tab[2] and tab[3] are the single digits RUNA and RUNB.
func buildRunTab(tab *[2 << runChunk]uint64, cs *codeSet, runA int32) {
	digit := [2]uint64{cs.packed[runA-cs.lo], cs.packed[runA+1-cs.lo]}
	tab[1] = 0 // no digits: the prefix of entries 2 and 3
	for x := 2; x < len(tab); x++ {
		// x's lowest digit comes first, then the digits of x>>1.
		d, rest := digit[x&1], tab[x>>1]
		dl, rl := d&255, rest&255
		if dl == 0 || (x >= 4 && rl == 0) || dl+rl > packedMaxLen {
			tab[x] = 0
			continue
		}
		tab[x] = (d>>8<<rl|rest>>8)<<8 | (dl + rl)
	}
}

// encode writes the run-coded stream p prices; s.mask holds scanRuns'
// mask of q.
func (p *runPlan) encode(q []int32, d *entropy.Dist, s *runScratch) []byte {
	cs := buildCodes(p.table, p.runA, d.Hi, true)
	buildRunTab(&s.tab, &cs, p.runA)
	out := make([]byte, 0, p.size)
	out = append(out, shardedMarker, runVersion)
	out = binary.AppendUvarint(out, uint64(p.hdrLen))
	out = binary.AppendUvarint(out, uint64(d.N))
	out = binary.AppendUvarint(out, uint64(p.m))
	out = binary.AppendVarint(out, int64(p.modal))
	out = binary.AppendVarint(out, int64(p.runA))
	out = appendTable(out, p.table)
	return encodeRuns(out, q, s.mask, cs.packed, cs.lo, &s.tab)
}

// runCursor is where expandFast stopped: the decode cursor inside the
// body (as decodeSingle takes it), the points written, the digits of a
// run not yet ended and the codes read.
type runCursor struct {
	rest   []byte
	bitBuf uint64
	bitCnt uint
	w      int
	run    uint64
	j      uint
	codes  int
}

// The run table's window, and the caps of one entry: groups (a run's
// digits and the symbol that ends it), the points of its leading digits,
// of its groups and of its trailing digits. An entry is written whole
// while the pending run and its leading digits stand for fewer than
// leadRoom points; runWindow bounds the points it then writes.
const (
	runBits   = 12
	runGroups = 3
	leadCap   = 127
	ptsCap    = 255
	tailCap   = 255
	leadRoom  = 256
	runWindow = 512
)

// runEnt decodes the whole codes that lie inside one runBits-wide window
// as leading digits, which continue the run pending before it; up to
// runGroups symbols, each after a run, the first at offset 0; and
// trailing digits, which start a run. For each symbol it holds the
// fast-table slot that decodes it and its offset from the first; pts is
// the points from the first symbol through the last, 0 for an entry of
// digits only, and the offsets of unused groups are pts. lead and tail
// are the digits' values counted from digit 0, nlead and ntail their
// numbers. bits and codes cover the whole entry, leadBits the leading
// digits; bits == 0 when the window opens with a code longer than it.
type runEnt struct {
	slot     [runGroups]uint16
	pos      [runGroups]uint8
	pts      uint8
	bits     uint8
	codes    uint8
	lead     uint8
	nlead    uint8
	leadBits uint8
	tail     uint8
	ntail    uint8
}

// buildRuns fills every slot of the run table by decoding its window
// greedily through the fast table while the next code fits in the bits
// the window has left and the entry's caps.
func (t *decTabs) buildRuns(runA int32) {
	if t.runs == nil {
		t.runs = new([1 << runBits]runEnt)
	}
	for s := range t.runs {
		var e runEnt
		var n, run, j, used, codes uint
		w := uint64(s) << (64 - runBits)
		for {
			slot := w >> (64 - fastBits)
			f := t.fast[slot]
			if f.len == 0 || used+uint(f.len) > runBits {
				break
			}
			if dg := uint32(f.sym) - uint32(runA); dg < 2 {
				run += uint(dg+1) << j
				j++
				if n == 0 && run <= leadCap {
					e.lead, e.nlead, e.leadBits = uint8(run), uint8(j), uint8(used+uint(f.len))
				} else if n == 0 || run > tailCap {
					break
				} else {
					e.tail, e.ntail = uint8(run), uint8(j)
				}
			} else {
				pos := uint(e.pts) + run
				if n == 0 {
					pos = 0
				}
				if n == runGroups || pos >= ptsCap {
					break
				}
				e.slot[n], e.pos[n] = uint16(slot), uint8(pos)
				n++
				e.pts, e.tail, e.ntail = uint8(pos+1), 0, 0
				run, j = 0, 0
			}
			used += uint(f.len)
			codes++
			e.bits, e.codes = uint8(used), uint8(codes)
			w <<= f.len
		}
		for k := n; k < runGroups; k++ {
			e.pos[k] = e.pts
		}
		t.runs[s] = e
	}
}

// runSlack is the output expandFast keeps ahead of its write cursor: an
// entry's window, and a pending run's block of fillWidth points.
const runSlack = runWindow + 2*fillWidth

// expandFast decodes and expands a run-coded body of m codes into out in
// one pass while at least 8 body bytes, more than runSlack output slots
// and more than runBits codes remain, so it reads no code past the m-th,
// and returns where it stopped. Each step writes the modal points of the
// pending run fillWidth at a time down to fewer than fillWidth, refills
// the register as decodeMulti does and looks the next runBits bits up in
// the run table. The entry's leading digits continue the pending run from
// its digit j; unless that makes the run leadRoom points or more, whose
// digits are then taken alone, the entry writes the run and its own
// points as modal in blocks of fillWidth, its symbols over them at their
// offsets, and leaves its trailing digits pending. A window that opens
// with a code longer than it takes that code through the fast table's
// second level or resyncSlow: a digit extends the run, any other symbol
// ends it.
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func (d *decoder) expandFast(body []byte, out []int32, m int, modal, runA int32) (runCursor, error) {
	runs, fast := d.tabs.runs, &d.tabs.fast
	var block [fillWidth]int32
	for i := range block {
		block[i] = modal
	}
	var bitBuf, run uint64
	var bitCnt, j uint
	codes := 0
	rest, dst := body, out
	for len(dst) > runSlack && len(rest) >= 8 && codes+runBits <= m {
		if run >= fillWidth {
			*(*[fillWidth]int32)(dst) = block
			dst = dst[fillWidth:]
			run -= fillWidth
			continue
		}
		bitBuf |= binary.BigEndian.Uint64(rest) >> bitCnt
		rest = rest[(63-bitCnt)>>3&7:]
		bitCnt |= 56
		e := &runs[bitBuf>>(64-runBits)]
		if e.bits != 0 {
			// The leading digits continue the pending run from digit j.
			off := run + uint64(e.lead)<<j
			if nj := j + uint(e.nlead); off >= leadRoom || nj > maxRunDigits {
				if nj > maxRunDigits {
					return runCursor{}, fmt.Errorf("%w: huffman: run of more than 62 digits", verdict.ErrCorrupt)
				}
				// A long run: take the leading digits alone.
				run, j = off, nj
				bitBuf <<= e.leadBits
				bitCnt -= uint(e.leadBits)
				codes += int(e.nlead)
				continue
			}
			const m = 1<<fastBits - 1
			win := (*[runWindow + fillWidth]int32)(dst)
			end := uint(off) + uint(e.pts)
			*(*[fillWidth]int32)(win[:]) = block
			*(*[fillWidth]int32)(win[fillWidth:]) = block
			for i := uint(2 * fillWidth); i < end; i += fillWidth {
				*(*[fillWidth]int32)(win[i&(runWindow-1):]) = block
			}
			win[(uint(off)+uint(e.pos[0]))&(runWindow-1)] = fast[e.slot[0]&m].sym
			win[(uint(off)+uint(e.pos[1]))&(runWindow-1)] = fast[e.slot[1]&m].sym
			win[(uint(off)+uint(e.pos[2]))&(runWindow-1)] = fast[e.slot[2]&m].sym
			if e.pts == 0 {
				// Digits only: their points are written, the run goes on.
				run, j = 0, j+uint(e.nlead)
			} else {
				run, j = uint64(e.tail), uint(e.ntail)
			}
			dst = dst[end&(runWindow-1):]
			bitBuf <<= e.bits
			bitCnt -= uint(e.bits)
			codes += int(e.codes)
			continue
		}
		f := fast[bitBuf>>(64-fastBits)]
		if f.len == 0 && f.sub != 0 {
			f = d.second(f, bitBuf)
		}
		sym := f.sym
		if f.len != 0 {
			bitBuf <<= f.len
			bitCnt -= uint(f.len)
		} else {
			var err error
			if sym, rest, bitBuf, bitCnt, err = d.resyncSlow(body, len(body)-len(rest), bitCnt); err != nil {
				return runCursor{}, err
			}
		}
		codes++
		if dg := uint32(sym) - uint32(runA); dg < 2 {
			if j == maxRunDigits {
				return runCursor{}, fmt.Errorf("%w: huffman: run of more than 62 digits", verdict.ErrCorrupt)
			}
			run += uint64(dg+1) << j
			j++
			continue
		}
		// run < fillWidth: longer runs were written above.
		*(*[fillWidth]int32)(dst) = block
		dst[run&(fillWidth-1)] = sym
		dst = dst[run&(fillWidth-1)+1:]
		run, j = 0, 0
	}
	return runCursor{rest: rest, bitBuf: bitBuf, bitCnt: bitCnt, w: len(out) - len(dst), run: run, j: j, codes: codes}, nil
}

// expandRuns expands, front to back and in place, the coded symbols that
// fill the capacity of gap past its length over all of that capacity,
// after a pending run of j digits that stand for run points. gap is the
// free span between the write cursor and the read cursor: reading a
// symbol extends it by a slot, writing a point shrinks it from the front.
// A run of j digits stands for at least j points and every other symbol
// for one, so in a valid stream the writes never pass the reads; a group
// (the digits of a run and the symbol after them) that would is corrupt,
// as is a stream that does not fill gap exactly.
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func expandRuns(gap []int32, modal, runA int32, run uint64, j uint) error {
	for len(gap) < cap(gap) {
		gap = gap[:len(gap)+1]
		s := gap[len(gap)-1]
		if dg := uint32(s) - uint32(runA); dg < 2 {
			if j == maxRunDigits {
				return fmt.Errorf("%w: huffman: run of more than 62 digits", verdict.ErrCorrupt)
			}
			run += uint64(dg+1) << j
			j++
			continue
		}
		if run >= uint64(len(gap)) {
			return fmt.Errorf("%w: huffman: run passes the declared count", verdict.ErrCorrupt)
		}
		for i := range run {
			gap[i] = modal
		}
		gap[run] = s
		gap = gap[run+1:]
		run, j = 0, 0
	}
	if run != uint64(len(gap)) {
		return fmt.Errorf("%w: huffman: runs end short of the declared count", verdict.ErrCorrupt)
	}
	for i := range gap {
		gap[i] = modal
	}
	return nil
}
