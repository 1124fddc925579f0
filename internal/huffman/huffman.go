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
// yields up to seven symbols, otherwise a 12-bit window that yields one.
// A sharded variant (see sharded.go) splits the body into K independent
// sub-streams under one shared code table so encode and decode scale with
// cores.
package huffman

import (
	"encoding/binary"
	"fmt"
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

type node struct {
	count       uint64
	sym         int32
	left, right int // indexes into the node arena; -1 for leaves
}

// nodeHeap is a binary min-heap of arena indexes ordered by (count, sym).
// Live nodes cover disjoint symbol sets and carry their smallest symbol,
// so the order is total and the pop sequence — hence the tree — does not
// depend on the heap's internal layout. The heap is typed rather than a
// container/heap.Interface because that API boxes every pushed and popped
// index: two allocations per distinct symbol.
type nodeHeap struct {
	arena []node
	idx   []int
}

func (h *nodeHeap) less(i, j int) bool {
	a, b := &h.arena[h.idx[i]], &h.arena[h.idx[j]]
	if a.count != b.count {
		return a.count < b.count
	}
	// Tie-break on symbol for determinism.
	return a.sym < b.sym
}

func (h *nodeHeap) push(v int) {
	h.idx = append(h.idx, v)
	for j := len(h.idx) - 1; j > 0; {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			break
		}
		h.idx[j], h.idx[parent] = h.idx[parent], h.idx[j]
		j = parent
	}
}

func (h *nodeHeap) pop() int {
	n := len(h.idx) - 1
	h.idx[0], h.idx[n] = h.idx[n], h.idx[0]
	h.down(0, n)
	v := h.idx[n]
	h.idx = h.idx[:n]
	return v
}

// down sifts element i into place within the first n elements.
func (h *nodeHeap) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.idx[i], h.idx[c] = h.idx[c], h.idx[i]
		i = c
	}
}

type symLen struct {
	sym int32
	len int
}

// buildTree builds the Huffman tree over syms and returns its node arena:
// the leaves first, in syms order, then every merge above both of its
// children, so the root is the last node.
func buildTree(syms []entropy.SymCount) []node {
	h := nodeHeap{arena: make([]node, 0, 2*len(syms)), idx: make([]int, len(syms))}
	for i, s := range syms {
		h.arena = append(h.arena, node{count: s.Count, sym: s.Sym, left: -1, right: -1})
		h.idx[i] = i
	}
	for i := len(syms)/2 - 1; i >= 0; i-- {
		h.down(i, len(syms))
	}
	for len(h.idx) > 1 {
		a := h.pop()
		b := h.pop()
		h.arena = append(h.arena, node{
			count: h.arena[a].count + h.arena[b].count,
			sym:   min(h.arena[a].sym, h.arena[b].sym),
			left:  a, right: b,
		})
		h.push(len(h.arena) - 1)
	}
	return h.arena
}

// codeLengths computes Huffman code lengths for the distinct symbols of
// d, in canonical order: by length, then symbol.
func codeLengths(d *entropy.Dist) []symLen {
	syms := d.Syms
	if len(syms) == 1 {
		return []symLen{{syms[0].Sym, 1}}
	}
	arena := buildTree(syms)

	// Parents sit above their children, so one reverse pass assigns all
	// depths. The counts are dead once the tree is built; the field
	// carries the depth from here on.
	arena[len(arena)-1].count = 0
	for i := len(arena) - 1; i >= len(syms); i-- {
		nd := arena[i]
		arena[nd.left].count, arena[nd.right].count = nd.count+1, nd.count+1
	}

	// The leaves are in d.Syms order — ascending by symbol — so a stable
	// counting sort on length yields the canonical order in O(n);
	// insertion-sorting the depth-first leaf order was quadratic on wide
	// alphabets (10^4 distinct symbols at tight error bounds).
	leaves := arena[:len(syms)]
	var start [maxCodeLen + 2]int // depths are bounded by maxCodeLen
	for _, lf := range leaves {
		start[lf.count+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	out := make([]symLen, len(syms))
	for _, lf := range leaves {
		out[start[lf.count]] = symLen{lf.sym, int(lf.count)}
		start[lf.count]++
	}
	return out
}

// --- encoding ---

// codeSet holds the canonical code assignment for one table, with a dense
// array fast path when the symbol range is moderate.
type codeSet struct {
	lo       int32
	codesArr []uint64
	lensArr  []uint8
	codes    map[int32]uint64
	lens     map[int32]uint
}

// buildCodes assigns canonical codes (ordered by length, then symbol) to
// the table entries. dense selects the flat-array lookup path over [lo,hi].
func buildCodes(table []symLen, lo, hi int32, dense bool) codeSet {
	var cs codeSet
	cs.lo = lo
	if dense && len(table) > 0 {
		cs.codesArr = make([]uint64, int(hi-lo)+1)
		cs.lensArr = make([]uint8, int(hi-lo)+1)
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
		if cs.codesArr != nil {
			cs.codesArr[sl.sym-lo] = code
			cs.lensArr[sl.sym-lo] = uint8(sl.len)
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
	if cs.codesArr != nil {
		return encodeDense(dst, q, cs.codesArr, cs.lensArr, cs.lo)
	}
	return encodeSparse(dst, q, cs)
}

// encodeDense is the array-indexed encode kernel for dense symbol ranges
// — the path every quantizer stream takes. Splitting it from the map
// fallback keeps the hot loop free of map headers and lets the compiler
// gate hold it to the no-allocation contract.
//
//scdc:hot
//scdc:noalloc
func encodeDense(dst []byte, q []int32, codes []uint64, lens []uint8, lo int32) []byte {
	var acc uint64
	var nbit uint
	for _, v := range q {
		i := v - lo
		c, l := codes[i], uint(lens[i])
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
	table := []symLen(nil)
	if len(q) > 0 {
		table = codeLengths(d)
	}
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense && len(q) > 0)

	hdr := make([]byte, 0, 16+len(table)*3)
	hdr = appendTableHeader(hdr, len(q), table)

	out := make([]byte, 0, len(hdr)+len(q)/2+24)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	return encodeBody(out, q, &cs)
}

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

type fastEnt struct {
	sym int32
	len uint8
}

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
func checkCanonical(lengths []int) error {
	var code uint64
	for i, l := range lengths {
		if i > 0 {
			code = (code + 1) << uint(l-lengths[i-1])
		}
		if (i > 0 && code == 0) || (l < 64 && code>>uint(l) != 0) {
			return fmt.Errorf("%w: huffman: over-subscribed code table", verdict.ErrCorrupt)
		}
	}
	return nil
}

// parseTableHeader parses the canonical table header (after the sample
// count), returning the symbols and code lengths.
func parseTableHeader(hdr []byte) (syms []int32, lengths []int, err error) {
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
	lengths = make([]int, ntab)
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
		lengths[i] = int(l)
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
func newDecoder(syms []int32, lengths []int, multi bool) *decoder {
	d := &decoder{syms: syms, multi: multi}
	t := tabPool.Get().(*decTabs)
	clear(t.fast[:t.touched])
	t.touched = 0
	d.tabs = t
	var code uint64
	prevLen := 0
	for i := range syms {
		l := lengths[i]
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
				t.fast[j] = fastEnt{syms[i], uint8(l)}
			}
			t.touched = int(base + span)
		}
		prevLen = l
	}
	if multi {
		t.buildMulti()
	}
	return d
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
// falls back to the fast table and then to resyncSlow, exactly as
// decodeSingle would. The tail — where a code may meet the end of the
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
		if f := fast[bitBuf>>(64-fastBits)]; f.len != 0 {
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
// where it runs past the body, matching Reader.PeekBits. Codes longer than
// fastBits — which need ~Fibonacci(13) skewed counts to exist — re-sync
// through the canonical slow path on a bitstream.Reader (resyncSlow, kept
// out of this body so its unprovable index never costs the hot loop a
// check).
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
// Reader at the current bit offset, decodes one code longer than
// fastBits, and returns the symbol plus the refreshed cursor state —
// the unread suffix of body and the reloaded partial byte. pos/bitCnt
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
