// Package huffman implements a canonical Huffman coder over int32 symbol
// streams. It is the default entropy-encoder stage of every
// prediction-based compressor in this repository, mirroring the Huffman
// stage of SZ3, QoZ, HPEZ and MGARD (paper Section II).
//
// The encoded form is self-describing: a varint-coded canonical code table
// followed by the bit stream. Both directions run through table-driven
// kernels: encode batches symbols into a 64-bit accumulator flushed in
// word-sized writes; decode peeks a window of a local bit buffer into a
// table — on long streams of short codes an 11-bit window whose entry
// yields up to seven symbols, otherwise a 12-bit window that yields one,
// with a second-level table behind each 12-bit prefix of 13–20-bit codes.
// A sharded variant (see sharded.go) splits the body into K independent
// sub-streams under one shared code table so encode and decode scale with
// cores.
package huffman

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"scdc/internal/bitstream"
	"scdc/internal/entropy"
	"scdc/internal/shard"
	"scdc/internal/verdict"
)

// maxCodeLen bounds canonical code lengths. Huffman depth d requires symbol
// counts on the order of Fibonacci(d); 64 cannot be exceeded for any input
// shorter than ~10^13 symbols, far beyond these workloads.
const maxCodeLen = 64

// node is one node of a Huffman tree: a leaf (left = right = -1) or the
// merge of two nodes, carrying their summed count and smallest symbol.
type node struct {
	count       uint64
	sym         int32
	left, right int32 // indexes into the node arena; -1 for leaves
}

type symLen struct {
	sym int32
	len int
}

// less orders nodes by (count, sym). Nodes cover disjoint symbol sets, so
// the order is total.
func (a *node) less(b *node) bool {
	return a.count < b.count || (a.count == b.count && a.sym < b.sym)
}

// leafOrder returns the indexes of syms sorted by (count, sym): a stable
// least-significant-digit radix sort on the count, a byte per pass and
// only as many passes as the largest count has bytes, of the indexes in
// syms order, which is ascending by symbol.
func (t *treeScratch) leafOrder(syms []entropy.SymCount) []int32 {
	n := len(syms)
	t.order = grow(t.order, 2*n)
	src, dst := t.order[:n], t.order[n:]
	var most uint64
	for i, s := range syms {
		src[i] = int32(i)
		most = max(most, s.Count)
	}
	for shift := 0; shift < bits.Len64(most); shift += 8 {
		var start [257]int
		for _, i := range src {
			start[int(byte(syms[i].Count>>shift))+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, i := range src {
			b := byte(syms[i].Count >> shift)
			dst[start[b]] = i
			start[b]++
		}
		src, dst = dst, src
	}
	return src
}

// buildTree builds the Huffman tree over syms and returns its node arena:
// the leaves first, in syms order, then every merge above both of its
// children, so the root is the last node. It is the two-queue method:
// the leaves are sorted once by (count, sym), and merges come out in
// (count, sym) order too — a merge outweighs both its children, and two
// merges of one count merged four nodes of half that count, the first
// two holding the smaller symbol — so the smaller of the two queue heads
// is always the node a (count, sym) min-heap would pop. The tree is the
// one the heap builds, merge for merge.
func (t *treeScratch) buildTree(syms []entropy.SymCount) []node {
	n := len(syms)
	arena := grow(t.arena, 2*n-1)[:n]
	for i, s := range syms {
		arena[i] = node{count: s.Count, sym: s.Sym, left: -1, right: -1}
	}
	order := t.leafOrder(syms)
	leaf, merged := 0, n // heads of the two queues
	next := func() int32 {
		if leaf < n && (merged == len(arena) || arena[order[leaf]].less(&arena[merged])) {
			leaf++
			return order[leaf-1]
		}
		merged++
		return int32(merged - 1)
	}
	for len(arena) < 2*n-1 {
		a, b := next(), next()
		arena = append(arena, node{
			count: arena[a].count + arena[b].count,
			sym:   min(arena[a].sym, arena[b].sym),
			left:  a, right: b,
		})
	}
	t.arena = arena
	return arena
}

// treeScratch is the pooled working memory of one code-length build: the
// node arena and the radix sort's two index buffers.
type treeScratch struct {
	arena []node
	order []int32
}

var treePool = sync.Pool{New: func() any { return new(treeScratch) }}

// grow returns s resliced to n elements, reallocated if its capacity is
// short; the contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// codeLengths computes Huffman code lengths for the distinct symbols of
// d, in canonical order: by length, then symbol, and the length of the
// body they code d's symbols to, in bits.
func codeLengths(d *entropy.Dist) (table []symLen, bodyBits uint64) {
	if len(d.Syms) == 1 {
		return []symLen{{d.Syms[0].Sym, 1}}, d.Syms[0].Count
	}
	t := treePool.Get().(*treeScratch)
	defer treePool.Put(t)
	return canonical(t.buildTree(d.Syms), d.Syms)
}

// canonical reads the code lengths of syms off their Huffman tree (whose
// arena begins with their leaves, in order) and sorts them canonically.
func canonical(arena []node, syms []entropy.SymCount) (table []symLen, bodyBits uint64) {
	// Parents sit above their children, so one reverse pass assigns all
	// depths. The counts are dead once the tree is built; the field
	// carries the depth from here on.
	arena[len(arena)-1].count = 0
	for i := len(arena) - 1; i >= len(syms); i-- {
		nd := arena[i]
		arena[nd.left].count, arena[nd.right].count = nd.count+1, nd.count+1
	}

	// The leaves are in syms order — ascending by symbol — so a stable
	// counting sort on length yields the canonical order in O(n);
	// insertion-sorting the depth-first leaf order was quadratic on wide
	// alphabets (10^4 distinct symbols at tight error bounds).
	leaves := arena[:len(syms)]
	var start [maxCodeLen + 2]int // depths are bounded by maxCodeLen
	for i, lf := range leaves {
		start[lf.count+1]++
		bodyBits += syms[i].Count * lf.count
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	table = make([]symLen, len(syms))
	for _, lf := range leaves {
		table[start[lf.count]] = symLen{lf.sym, int(lf.count)}
		start[lf.count]++
	}
	return table, bodyBits
}

// --- encoding ---

// codeSet holds the canonical code assignment for one table: one word
// per symbol of a moderate range, code<<8 | length, or maps.
type codeSet struct {
	lo     int32
	packed []uint64
	codes  map[int32]uint64
	lens   map[int32]uint
}

// packedMaxLen is the longest code a packed word holds above its 8-bit
// length. A longer one needs ~Fibonacci(58) symbols; its table takes the
// maps.
const packedMaxLen = 56

// buildCodes assigns canonical codes (ordered by length, then symbol) to
// the table entries. dense selects the packed lookup over [lo,hi], unless
// a code is longer than packedMaxLen.
func buildCodes(table []symLen, lo, hi int32, dense bool) codeSet {
	var cs codeSet
	cs.lo = lo
	if dense && len(table) > 0 && table[len(table)-1].len <= packedMaxLen {
		cs.packed = make([]uint64, int(hi-lo)+1)
	} else {
		cs.codes = make(map[int32]uint64, len(table))
		cs.lens = make(map[int32]uint, len(table))
	}
	var code uint64
	prevLen := 0
	for _, sl := range table {
		if prevLen != 0 {
			code = (code + 1) << uint(sl.len-prevLen)
		}
		if cs.packed != nil {
			cs.packed[sl.sym-lo] = code<<8 | uint64(sl.len)
		} else {
			cs.codes[sl.sym] = code
			cs.lens[sl.sym] = uint(sl.len)
		}
		prevLen = sl.len
	}
	return cs
}

// encodeBody appends the Huffman bit stream of q to dst through a 64-bit
// accumulator flushed in word-sized big-endian writes — the table-driven
// encode kernel. The bit-level output is identical to driving
// bitstream.Writer one code at a time (MSB-first, zero-padded tail byte),
// without the per-symbol call and branch overhead.
func encodeBody(dst []byte, q []int32, cs *codeSet) []byte {
	if cs.packed != nil {
		return encodeDense(dst, q, cs.packed, cs.lo)
	}
	return encodeSparse(dst, q, cs)
}

// encodeDense is the array-indexed encode kernel for dense symbol ranges
// — the path every quantizer stream takes. One load per symbol yields its
// code and length. Splitting it from the map fallback keeps the hot loop
// free of map headers and lets the compiler gate hold it to the
// no-allocation contract.
//
//scdc:hot
//scdc:noalloc
func encodeDense(dst []byte, q []int32, packed []uint64, lo int32) []byte {
	var acc uint64
	var nbit uint
	for _, v := range q {
		e := packed[v-lo]
		c, l := e>>8, uint(e&255)
		if nbit+l <= 64 {
			acc = acc<<l | c
			nbit += l
			if nbit == 64 {
				dst = binary.BigEndian.AppendUint64(dst, acc)
				acc, nbit = 0, 0
			}
			continue
		}
		// Split across the word boundary: top `space` bits complete the
		// accumulator, the low bits start the next word.
		space := 64 - nbit
		rem := l - space
		dst = binary.BigEndian.AppendUint64(dst, acc<<space|c>>rem)
		acc = c & (1<<rem - 1)
		nbit = rem
	}
	return flushTail(dst, acc, nbit)
}

// encodeSparse is the map-indexed fallback for symbol ranges too wide for
// a flat table. Bit-identical to encodeDense on the same code assignment.
func encodeSparse(dst []byte, q []int32, cs *codeSet) []byte {
	var acc uint64
	var nbit uint
	for _, v := range q {
		c, l := cs.codes[v], cs.lens[v]
		if nbit+l <= 64 {
			acc = acc<<l | c
			nbit += l
			if nbit == 64 {
				dst = binary.BigEndian.AppendUint64(dst, acc)
				acc, nbit = 0, 0
			}
			continue
		}
		space := 64 - nbit
		rem := l - space
		dst = binary.BigEndian.AppendUint64(dst, acc<<space|c>>rem)
		acc = c & (1<<rem - 1)
		nbit = rem
	}
	return flushTail(dst, acc, nbit)
}

// flushTail drains the sub-word remainder of the encode accumulator:
// whole bytes MSB-first, then a zero-padded final partial byte.
//
//scdc:inline
func flushTail(dst []byte, acc uint64, nbit uint) []byte {
	for nbit >= 8 {
		nbit -= 8
		dst = append(dst, byte(acc>>nbit))
	}
	if nbit > 0 {
		dst = append(dst, byte(acc<<(8-nbit)))
	}
	return dst
}

// appendTableHeader appends the canonical table header: count of samples,
// table size, then (zigzag delta symbol, length) pairs.
func appendTableHeader(hdr []byte, nsamp int, table []symLen) []byte {
	hdr = binary.AppendUvarint(hdr, uint64(nsamp))
	hdr = binary.AppendUvarint(hdr, uint64(len(table)))
	prevSym := int64(0)
	for _, sl := range table {
		hdr = binary.AppendVarint(hdr, int64(sl.sym)-prevSym)
		hdr = binary.AppendUvarint(hdr, uint64(sl.len))
		prevSym = int64(sl.sym)
	}
	return hdr
}

// Encode compresses q into a self-describing byte stream.
func Encode(q []int32) []byte {
	return EncodeDist(q, entropy.Analyze(q))
}

// EncodeDist is Encode reusing a distribution already computed by
// entropy.Analyze(q), so callers that estimated sizes before encoding
// (core.ChooseEncodingCoder) never histogram the array twice. d must
// describe exactly q.
func EncodeDist(q []int32, d *entropy.Dist) []byte {
	var table []symLen
	var bodyBits uint64
	if len(q) > 0 {
		table, bodyBits = codeLengths(d)
	}
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense && len(q) > 0)
	hdr := appendTableHeader(make([]byte, 0, headerCap(table)), len(q), table)

	// The code lengths fix the body's size, so one allocation holds the
	// whole stream.
	out := make([]byte, 0, binary.MaxVarintLen64+len(hdr)+int((bodyBits+7)/8))
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	return encodeBody(out, q, &cs)
}

// EncodedLen returns len(Encode(q)) without writing the stream: the code
// lengths fix both the table header, whose varints it sizes, and the
// body's bit count.
func EncodedLen(q []int32) int { return encodedLen(entropy.Analyze(q)) }

// encodedLen is EncodedLen of the array d describes.
func encodedLen(d *entropy.Dist) int {
	var table []symLen
	var bodyBits uint64
	if d.N > 0 {
		table, bodyBits = codeLengths(d)
	}
	hdr := uvarintLen(uint64(d.N)) + uvarintLen(uint64(len(table)))
	prevSym := int64(0)
	for _, sl := range table {
		delta := int64(sl.sym) - prevSym
		hdr += uvarintLen(uint64(delta<<1)^uint64(delta>>63)) + uvarintLen(uint64(sl.len))
		prevSym = int64(sl.sym)
	}
	return uvarintLen(uint64(hdr)) + hdr + int((bodyBits+7)/8)
}

// uvarintLen is the length of x's uvarint encoding; a varint is the
// uvarint of its zigzag.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// headerCap bounds the table header of table: two uvarints, then at most
// a 5-byte symbol delta (two int32s differ by less than 2^32) and a
// 1-byte length per entry.
func headerCap(table []symLen) int { return 2*binary.MaxVarintLen64 + 6*len(table) }

// --- decoding ---

// decTable holds canonical decoding state for one code length.
type decTable struct {
	firstCode uint64 // canonical code value of the first code of this length
	firstIdx  int    // index into syms of that code
	count     int    // number of codes of this length
}

// fastBits sizes the one-lookup decode table; the overwhelming majority of
// symbols in a skewed index distribution decode in one lookup.
const fastBits = 12

// multiBits sizes the multi-symbol window and multiSyms caps the codes one
// of its entries holds: 16-byte entries, 32 KB in all.
const (
	multiBits = 11
	multiSyms = 7
)

// fastEnt is one slot of a one-lookup table. In the 12-bit table, an
// entry with len == 0 and sub != 0 is the prefix of codes of fastBits+1
// to fastBits+subBits bits: their second-level table is the 1<<sub
// entries of decTabs.sub from index sym, looked up by the sub bits after
// the prefix. len == 0 anywhere else is a miss: a longer code, or a hole
// in an incomplete code.
type fastEnt struct {
	sym int32
	len uint8
	sub uint8
}

// A second-level entry is the index of its symbol in decoder.syms,
// shifted up by subLenBits, above the whole code's length; 0 is a miss.
// Codes of at most 20 bits come first in canonical order and number at
// most 2^20, so the index fits.
const subLenBits = 5

// second resolves the 12-bit-table prefix entry e through its
// second-level table by the bits after the prefix in bitBuf; a miss
// returns an entry of length 0. The tables are loaded here, on the rare
// path, so the kernels' loops keep no registers for them.
//
//scdc:inline
func (d *decoder) second(e fastEnt, bitBuf uint64) fastEnt {
	sub, syms := d.tabs.sub, d.syms
	if i := uint(e.sym) + uint(bitBuf<<fastBits>>(64-e.sub)); i < uint(len(sub)) {
		if j := uint(sub[i] >> subLenBits); j < uint(len(syms)) {
			return fastEnt{sym: syms[j], len: uint8(sub[i] & (1<<subLenBits - 1))}
		}
	}
	return fastEnt{}
}

// subBits is how many bits past fastBits the second-level tables
// resolve: codes of 13 to 20 bits decode in two lookups, longer ones
// through resyncSlow. subCap bounds one decoder's second-level entries
// (64 KB; a real MGARD stream at ~10 bits/symbol needs 10 000–12 500);
// the codes of prefixes past it decode through resyncSlow too.
const (
	subBits = 8
	subCap  = 1 << 14
)

// multiEnt decodes every code that lies wholly inside one multiBits-wide
// window: for each of its first n (at most multiSyms) codes a fast-table
// slot holding it, whose entry gives the symbol, and their total length.
// n == 0 when the window opens with a code longer than multiBits.
type multiEnt struct {
	slot [multiSyms]uint16
	n    uint8
	bits uint8
}

// decTabs is the pooled table store of one decoder. Canonical codes fill
// the fast table as one contiguous prefix starting at slot 0 (each code's
// span begins where the previous span ends), so touched records the prefix
// high-water mark and reuse clears only that prefix instead of all
// 1<<fastBits entries. The multi table is allocated by the first
// multi-symbol decoder to hold the store, so decoders that never use it do
// not pay for it, and rewritten whole by every one after.
// The tables are fixed-size arrays rather than slices so the hot decode
// lookups index through a pointer to an array: the table length is then a
// compile-time constant and the prove pass drops the bounds check on the
// peek (a fastBits- or multiBits-wide value by construction) and on the
// masked slot.
type decTabs struct {
	fast    [1 << fastBits]fastEnt
	touched int // fast entries [0,touched) were written since the last clear
	multi   *[1 << multiBits]multiEnt
	sub     []uint32 // second-level tables, grown to what a decoder needs
}

var tabPool = sync.Pool{New: func() any {
	return new(decTabs)
}}

// Multi-symbol decoding pays on long streams of short codes: one lookup
// then yields ~multiBits/(bits per symbol) symbols. On wide alphabets
// (~10 bits/symbol, MGARD at tight bounds) most entries hold one code and
// the wider entry only costs, and below minMultiSymbols the table build
// (2048 slots decoded greedily) is not won back.
const (
	minMultiSymbols    = 1 << 16
	maxMultiBitsPerSym = 5
)

// multiPays reports whether a stream of n symbols in bodyLen body bytes
// decodes through the multi-symbol table: it must be long and average at
// most maxMultiBitsPerSym bits per symbol. Entries name fast-table slots,
// so the code table's size needs no bound of its own.
func multiPays(n, bodyLen int) bool {
	return n >= minMultiSymbols && 8*bodyLen <= maxMultiBitsPerSym*n
}

// checkCanonical walks the canonical code assignment of ascending lengths
// the way buildCodes and newDecoder do and rejects a table whose codes do
// not fit their lengths: an over-subscribed code space. The decoder trusts
// this: newDecoder writes 1<<(fastBits-len) fast-table entries per short
// code from the code's value on. A code after the first
// is never 0 unless the walk wrapped past 2^64, which only 64-bit codes
// can do.
func checkCanonical(lengths []uint8) error {
	var code uint64
	for i, l := range lengths {
		if i > 0 {
			code = (code + 1) << (l - lengths[i-1])
		}
		if (i > 0 && code == 0) || (l < 64 && code>>uint(l) != 0) {
			return fmt.Errorf("%w: huffman: over-subscribed code table", verdict.ErrCorrupt)
		}
	}
	return nil
}

// parseTableHeader parses the canonical table header (after the sample
// count), returning the symbols and code lengths.
func parseTableHeader(hdr []byte) (syms []int32, lengths []uint8, err error) {
	ntab, k := binary.Uvarint(hdr)
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: huffman: bad table size", verdict.ErrCorrupt)
	}
	hdr = hdr[k:]
	// Each table entry costs at least 2 bytes (>=1-byte symbol delta plus a
	// 1-byte length), so reject hostile sizes before allocating.
	if 2*ntab > uint64(len(hdr))+1 {
		return nil, nil, fmt.Errorf("%w: huffman: table size %d exceeds header", verdict.ErrCorrupt, ntab)
	}

	syms = make([]int32, ntab)
	lengths = make([]uint8, ntab)
	prevSym := int64(0)
	prevLen := 0
	for i := range syms {
		ds, k := binary.Varint(hdr)
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: huffman: bad symbol delta", verdict.ErrCorrupt)
		}
		hdr = hdr[k:]
		l, k := binary.Uvarint(hdr)
		if k <= 0 || l == 0 || l > maxCodeLen {
			return nil, nil, fmt.Errorf("%w: huffman: bad code length", verdict.ErrCorrupt)
		}
		hdr = hdr[k:]
		if int(l) < prevLen {
			return nil, nil, fmt.Errorf("%w: huffman: non-monotonic code lengths", verdict.ErrCorrupt)
		}
		prevSym += ds
		if prevSym < -1<<31 || prevSym > 1<<31-1 {
			return nil, nil, fmt.Errorf("%w: huffman: symbol out of int32 range", verdict.ErrCorrupt)
		}
		syms[i] = int32(prevSym)
		lengths[i] = uint8(l)
		prevLen = int(l)
	}
	if err := checkCanonical(lengths); err != nil {
		return nil, nil, err
	}
	return syms, lengths, nil
}

// decoder holds the immutable canonical decode tables for one stream; a
// single decoder can decode multiple shard bodies concurrently.
type decoder struct {
	syms   []int32
	tables [maxCodeLen + 1]decTable
	tabs   *decTabs // pooled; release() returns it
	multi  bool     // tabs.multi is built; decodeBody uses it
}

// newDecoder builds per-length canonical tables plus the table-driven fast
// path for codes up to fastBits long, and with multi the multi-symbol
// table on top of it. The table must have passed checkCanonical.
func newDecoder(syms []int32, lengths []uint8, multi bool) *decoder {
	d := &decoder{syms: syms, multi: multi}
	t := tabPool.Get().(*decTabs)
	clear(t.fast[:t.touched])
	t.touched = 0
	d.tabs = t
	var code uint64
	prevLen := 0
	for i := range syms {
		l := int(lengths[i])
		if prevLen != 0 {
			code = (code + 1) << uint(l-prevLen)
		}
		if d.tables[l].count == 0 {
			d.tables[l].firstCode = code
			d.tables[l].firstIdx = i
		}
		d.tables[l].count++
		if l <= fastBits {
			base := code << uint(fastBits-l)
			span := uint64(1) << uint(fastBits-l)
			for j := base; j < base+span; j++ {
				t.fast[j] = fastEnt{sym: syms[i], len: uint8(l)}
			}
			t.touched = int(base + span)
		}
		prevLen = l
	}
	d.buildSub()
	if multi {
		t.buildMulti()
	}
	return d
}

// buildSub gives every 12-bit prefix of 13–20-bit codes its second-level
// table, sized by the longest of those codes, while they fit in subCap
// entries. The codes of one length are consecutive, so their prefixes are
// one range, and lengths ascend, so the last length to claim a prefix is
// its longest.
func (d *decoder) buildSub() {
	t := d.tabs
	lastPrefix := -1
	for l := fastBits + 1; l <= fastBits+subBits; l++ {
		if tb := d.tables[l]; tb.count > 0 {
			shift := uint(l - fastBits)
			lastPrefix = int((tb.firstCode + uint64(tb.count) - 1) >> shift)
			for p := tb.firstCode >> shift; p <= uint64(lastPrefix); p++ {
				t.fast[p].sub = uint8(shift)
			}
		}
	}
	if lastPrefix < 0 {
		return
	}
	t.touched = max(t.touched, lastPrefix+1)
	used := int32(0)
	for p := range t.fast[:lastPrefix+1] {
		e := &t.fast[p]
		if e.sub == 0 {
			continue
		}
		if size := int32(1) << e.sub; used+size <= subCap {
			e.sym = used
			used += size
		} else {
			e.sub = 0
		}
	}
	if cap(t.sub) < int(used) {
		t.sub = make([]uint32, used)
	}
	t.sub = t.sub[:used]
	clear(t.sub)
	for l := fastBits + 1; l <= fastBits+subBits; l++ {
		tb := d.tables[l]
		shift := uint(l - fastBits)
		for j := 0; j < tb.count; j++ {
			code := tb.firstCode + uint64(j)
			e := t.fast[code>>shift]
			if e.sub == 0 {
				continue
			}
			// The code fills the entries whose first shift bits are its
			// last shift bits.
			span := uint64(1) << (uint(e.sub) - shift)
			first := uint64(e.sym) + code&(1<<shift-1)*span
			for k := first; k < first+span; k++ {
				t.sub[k] = uint32(tb.firstIdx+j)<<subLenBits | uint32(l)
			}
		}
	}
}

// buildMulti fills every multi-table slot by decoding its window greedily
// through the fast table while the next code fits in the bits the window
// has left. The window is zero past those bits, so a code that fits was
// matched on real bits only.
func (t *decTabs) buildMulti() {
	if t.multi == nil {
		t.multi = new([1 << multiBits]multiEnt)
	}
	for s := range t.multi {
		var e multiEnt
		w := uint64(s) << (64 - multiBits)
		for e.n < multiSyms {
			slot := w >> (64 - fastBits)
			f := t.fast[slot]
			if f.len == 0 || e.bits+f.len > multiBits {
				break
			}
			e.slot[e.n] = uint16(slot)
			e.n++
			e.bits += f.len
			w <<= f.len
		}
		t.multi[s] = e
	}
}

// release returns the pooled tables. The decoder must not be used
// afterwards.
func (d *decoder) release() {
	t := d.tabs
	d.tabs = nil
	tabPool.Put(t)
}

// decodeBody decodes exactly len(out) symbols from body into out, through
// the multi-symbol kernel if the decoder was built with it. It is safe to
// call concurrently on one decoder with distinct bodies/outputs.
func (d *decoder) decodeBody(body []byte, out []int32) error {
	if d.multi {
		return d.decodeMulti(body, out)
	}
	return d.decodeSingle(body, body, 0, 0, out)
}

// decodeMulti is the multi-symbol kernel: while at least 8 body bytes and
// multiSyms output slots remain, one lookup of the next multiBits bits
// writes all multiSyms slots of its entry and advances by the entry's
// count (the excess slots are rewritten by the next step). The register is
// refilled branch-free to 56–63 bits before every lookup with one 64-bit
// load, so a peek never reaches past the bytes present. The load also
// leaves up to 8 bits of rest[0] past bitCnt; they are the stream's own,
// and every later refill, this kernel's or decodeSingle's, ORs the same
// values over them. An entry with count 0 (a code longer than multiBits)
// falls back to the fast table, its second level (the register holds the
// whole of a 20-bit code) and then resyncSlow, exactly as decodeSingle
// would. The tail — where a code may meet the end of the
// body — is decodeSingle's, so truncation is caught in one place, with the
// same error, whichever kernel runs.
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func (d *decoder) decodeMulti(body []byte, out []int32) error {
	multi, fast := d.tabs.multi, &d.tabs.fast
	var bitBuf uint64
	var bitCnt uint
	rest := body
	for len(out) >= multiSyms && len(rest) >= 8 {
		bitBuf |= binary.BigEndian.Uint64(rest) >> bitCnt
		rest = rest[(63-bitCnt)>>3&7:]
		bitCnt |= 56
		e := &multi[bitBuf>>(64-multiBits)]
		if e.n != 0 {
			const m = 1<<fastBits - 1
			out[0] = fast[e.slot[0]&m].sym
			out[1] = fast[e.slot[1]&m].sym
			out[2] = fast[e.slot[2]&m].sym
			out[3] = fast[e.slot[3]&m].sym
			out[4] = fast[e.slot[4]&m].sym
			out[5] = fast[e.slot[5]&m].sym
			out[6] = fast[e.slot[6]&m].sym
			bitBuf <<= e.bits
			bitCnt -= uint(e.bits)
			out = out[e.n&7:] // n <= 7 already; the mask shows the prove pass
			continue
		}
		f := fast[bitBuf>>(64-fastBits)]
		if f.len == 0 && f.sub != 0 {
			f = d.second(f, bitBuf)
		}
		if f.len != 0 {
			out[0] = f.sym
			bitBuf <<= f.len
			bitCnt -= uint(f.len)
			out = out[1:]
			continue
		}
		sym, nrest, nbuf, ncnt, err := d.resyncSlow(body, len(body)-len(rest), bitCnt)
		if err != nil {
			return err
		}
		out[0] = sym
		out = out[1:]
		rest, bitBuf, bitCnt = nrest, nbuf, ncnt
	}
	return d.decodeSingle(body, rest, bitBuf, bitCnt, out)
}

// decodeSingle is the single-symbol kernel: it decodes exactly len(out)
// symbols, one lookup each, from the cursor (rest, bitBuf, bitCnt) inside
// body — all of body from zero state, or the tail decodeMulti leaves.
//
// The hot loop mirrors the encode kernel: a local 64-bit buffer holds the
// next bits left-aligned and is refilled in 32-bit loads. Past bitCnt it
// holds zeros — or, handed over by decodeMulti, look-ahead bits of
// rest[0], which the first refill ORs over with the same values before a
// peek can reach them — so the top-12-bit peek is zero-padded for free
// where it runs past the body, matching Reader.PeekBits. A code of 13–20
// bits takes a second lookup, into its prefix's second-level table, and
// is checked against the bits present the same way. Longer codes, and the
// prefixes that did not fit subCap, re-sync through the canonical slow
// path on a bitstream.Reader (resyncSlow, kept out of this body so its
// unprovable index never costs the hot loop a check).
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func (d *decoder) decodeSingle(body, rest []byte, bitBuf uint64, bitCnt uint, out []int32) error {
	ents := &d.tabs.fast
	// The read cursor is the unread suffix of body rather than a byte
	// index: every load is then guarded by a len(rest) comparison the
	// prove pass can see, which keeps this loop bounds-check free (the
	// nobounds contract below). An integer cursor reassigned by the
	// resync path is not provably non-negative and would re-introduce
	// checks on both refill loads.
	for i := 0; i < len(out); i++ {
		if bitCnt < 32 {
			if len(rest) >= 4 {
				bitBuf |= uint64(binary.BigEndian.Uint32(rest)) << (32 - bitCnt)
				rest = rest[4:]
				bitCnt += 32
			} else {
				for len(rest) > 0 && bitCnt <= 56 {
					bitBuf |= uint64(rest[0]) << (56 - bitCnt)
					rest = rest[1:]
					bitCnt += 8
				}
			}
		}
		e := ents[bitBuf>>(64-fastBits)]
		if e.len == 0 && e.sub != 0 {
			e = d.second(e, bitBuf)
		}
		if l := uint(e.len); l != 0 {
			if l > bitCnt {
				// The lookup matched only thanks to the zero padding past
				// the end of the body: the stream is truncated.
				return fmt.Errorf("%w: huffman: truncated body", verdict.ErrCorrupt)
			}
			bitBuf <<= l
			bitCnt -= l
			out[i] = e.sym
			continue
		}
		sym, nrest, nbuf, ncnt, err := d.resyncSlow(body, len(body)-len(rest), bitCnt)
		if err != nil {
			return err
		}
		out[i] = sym
		rest, bitBuf, bitCnt = nrest, nbuf, ncnt
	}
	return nil
}

// resyncSlow handles both kernels' rare long-code path: it positions a
// Reader at the current bit offset, decodes one code the tables miss
// (longer than fastBits+subBits, or a hole), and returns the symbol plus
// the refreshed cursor state — the unread suffix of body and the
// reloaded partial byte. pos/bitCnt
// locate the kernel's cursor at the unmatched peek.
func (d *decoder) resyncSlow(body []byte, pos int, bitCnt uint) (sym int32, rest []byte, bitBuf uint64, nbits uint, err error) {
	r := bitstream.NewReader(body)
	if err := r.Skip(uint(pos*8) - bitCnt); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("%w: huffman: truncated body", verdict.ErrCorrupt)
	}
	sym, err = d.decodeSlow(r)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	consumed := r.BitsRead()
	npos := consumed >> 3
	if frac := uint(consumed & 7); frac > 0 {
		bitBuf = uint64(body[npos]) << (56 + frac)
		nbits = 8 - frac
		npos++
	}
	return sym, body[npos:], bitBuf, nbits, nil
}

// decodeSlowPeek is the slow-path peek window: one peek feeds the
// canonical range check of every length the window covers.
const decodeSlowPeek = 32

// decodeSlow resolves one code longer than fastBits. A single wide peek
// replaces the former bit-at-a-time scan: for each candidate length the
// code value is the peek's top bits, checked against that length's
// canonical range. Only codes longer than the peek window — which require
// ~Fibonacci(33) skewed symbol counts to exist at all — fall back to
// per-bit scanning.
func (d *decoder) decodeSlow(r *bitstream.Reader) (int32, error) {
	vp := r.PeekBits(decodeSlowPeek)
	for l := fastBits + 1; l <= decodeSlowPeek; l++ {
		t := d.tables[l]
		if t.count == 0 {
			continue
		}
		v := vp >> uint(decodeSlowPeek-l)
		if v >= t.firstCode && v < t.firstCode+uint64(t.count) {
			if err := r.Skip(uint(l)); err != nil {
				return 0, fmt.Errorf("%w: huffman: truncated body", verdict.ErrCorrupt)
			}
			return d.syms[t.firstIdx+int(v-t.firstCode)], nil
		}
	}
	// PeekBits zero-pads past the end of the stream, so any match above
	// that used padding was rejected by Skip exactly where the per-bit
	// scan would have run out of bits. Lengths within the window that
	// found no match here cannot match below either (same bits, same
	// ranges), so the scan only tests lengths beyond the window.
	var v uint64
	l := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("%w: huffman: truncated body", verdict.ErrCorrupt)
		}
		v = v<<1 | uint64(b)
		l++
		if l > maxCodeLen {
			return 0, fmt.Errorf("%w: huffman: code overflow", verdict.ErrCorrupt)
		}
		if l <= decodeSlowPeek {
			continue
		}
		t := d.tables[l]
		if t.count > 0 && v >= t.firstCode && v < t.firstCode+uint64(t.count) {
			return d.syms[t.firstIdx+int(v-t.firstCode)], nil
		}
	}
}

// Decode reverses Encode (and decodes sharded streams sequentially). It
// trusts the declared sample count up to what the body could hold at one
// bit per symbol; a caller that knows the count passes it to
// DecodeParallel.
func Decode(data []byte) ([]int32, error) {
	return DecodeParallel(data, -1, 1)
}

// DecodeParallel decodes a Huffman stream on up to workers goroutines.
// Legacy single-body streams decode sequentially regardless of workers;
// sharded streams (EncodeSharded, sharded.go) decode their shards
// concurrently. n >= 0 is the number of symbols the stream must hold: one
// that declares any other count is corrupt before its output is
// allocated. n < 0 accepts whatever the body could hold.
func DecodeParallel(data []byte, n, workers int) ([]int32, error) {
	sharded := len(data) > 0 && data[0] == shardedMarker
	if sharded {
		if len(data) < 2 || data[1] != shardedVersion {
			return nil, fmt.Errorf("%w: huffman: unsupported sharded version", verdict.ErrCorrupt)
		}
		data = data[2:]
	}
	hdrLen, c := binary.Uvarint(data)
	if c <= 0 || hdrLen > uint64(len(data)-c) {
		return nil, fmt.Errorf("%w: huffman: bad header length", verdict.ErrCorrupt)
	}
	hdr := data[c : c+int(hdrLen)]
	body := data[c+int(hdrLen):]

	nsamp, k := binary.Uvarint(hdr)
	if k <= 0 {
		return nil, fmt.Errorf("%w: huffman: bad sample count", verdict.ErrCorrupt)
	}
	if n >= 0 && nsamp != uint64(n) {
		return nil, fmt.Errorf("%w: huffman: %d samples declared, want %d", verdict.ErrCorrupt, nsamp, n)
	}
	syms, lengths, err := parseTableHeader(hdr[k:])
	if err != nil {
		return nil, err
	}
	if nsamp > 0 && len(syms) == 0 {
		return nil, fmt.Errorf("%w: huffman: empty table with %d samples", verdict.ErrCorrupt, nsamp)
	}
	if nsamp == 0 && !sharded {
		return []int32{}, nil
	}
	// Every code is >= 1 bit, so a body of B bytes can hold at most 8B
	// symbols; reject hostile sample counts before allocating the shard
	// directory or the output.
	if nsamp > 8*uint64(len(body)) {
		return nil, fmt.Errorf("%w: huffman: %d samples for %d-byte body", verdict.ErrCorrupt, nsamp, len(body))
	}
	var dir []shard.Shard
	if sharded {
		if dir, err = shard.ParseDir(body, int(nsamp), false, int(nsamp)); err != nil {
			return nil, err
		}
	}

	d := newDecoder(syms, lengths, multiPays(int(nsamp), len(body)))
	defer d.release()
	out := make([]int32, nsamp)
	if !sharded {
		err = d.decodeBody(body, out)
	} else {
		err = d.decodeShards(dir, out, workers)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
