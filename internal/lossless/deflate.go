package lossless

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// An RFC 1951 (DEFLATE) encoder: the writer of every tag-1 body and every
// flate shard of the sharded container.
//
// Matching hashes the 4-byte key at every position into a table that
// keeps the slot's latest position, and records the slot's previous entry
// for the position, so a slot's positions chain back through the 32 KB
// window. Entries carry check bits of their key's hash, so a candidate
// with another key is passed over unread. Where the latest position
// matches, the chain is walked for the longest match. A match is at least
// 4 bytes; while it is shorter than lazyBelow and the next position has a
// longer one, the byte goes out as a literal and the search moves on.
//
// A block holds up to blockTokens tokens and goes out as whichever of a
// stored, a fixed-Huffman and a dynamic-Huffman block is smallest, each
// priced exactly in bits from the block's histograms. Dynamic codes are
// Huffman codes limited to 15 bits (7 for the code-length code), with at
// least two codes in each, as zlib writes them.

const (
	windowSize  = 1 << 15
	maxMatch    = 258
	blockTokens = 1 << 14

	// Match search, in the terms of zlib's level 6: a match shorter than
	// lazyBelow is tested against the next position's; that search walks
	// a quarter of the chain once the match is goodMatch long; a walk
	// stops at a niceMatch match. A walk visits at most maxChain
	// candidates in a body's first block and after a block whose matches
	// covered at least three quarters of its bytes, midChain after one
	// whose matches covered half, else shallowChain: on entropy-coded
	// bytes, where matches are short and sparse, a deep walk costs more
	// than it finds.
	lazyBelow    = 16
	goodMatch    = 8
	niceMatch    = 128
	maxChain     = 128
	midChain     = 16
	shallowChain = 8

	// The hash table has 1<<hashBits entries. An entry holds a position
	// plus the table offset above checkBits bits of its key's hash, which
	// reject most candidates without reading them. tableRebase is the
	// largest position-plus-offset a block starts at: a block covers less
	// than 1<<23 bytes, so the position never overflows its 25 bits.
	hashBits    = 17
	checkBits   = 7
	checkMask   = 1<<checkBits - 1
	tableRebase = 1 << 24

	// A token is a literal byte (below 256) or a match: matchFlag,
	// length−3 from bit 15 and distance−1 in bits 0–14.
	matchFlag = 1 << 31
)

var (
	// lenExtra packs, per length−3, its length symbol − 257, the symbol's
	// extra-bit count from bit 8 and the extra bits' value from bit 16.
	// distSymLo maps distance−1 below 256 to its distance symbol, and
	// distSymHi maps (distance−1)>>7 to it for the rest.
	lenExtra, distSymLo, distSymHi = symTables()

	// fixedLitLens are the code lengths of RFC 1951 §3.2.6's fixed
	// literal/length code; its distance codes are all 5 bits.
	fixedLitLens = func() (lens [288]uint8) {
		for s := range lens {
			switch {
			case s < 144:
				lens[s] = 8
			case s < 256:
				lens[s] = 9
			case s < 280:
				lens[s] = 7
			default:
				lens[s] = 8
			}
		}
		return lens
	}()
	fixedDistLens = [maxDistCodes]uint8{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}

	fixedLitCodes, fixedDistCodes = func() (lit [288]uint32, dist [maxDistCodes]uint32) {
		canonicalCodes(fixedLitLens[:], lit[:])
		canonicalCodes(fixedDistLens[:], dist[:])
		return lit, dist
	}()
)

// symTables builds lenExtra, distSymLo and distSymHi from the inflater's
// symbol bases.
func symTables() (le [256]uint32, lo, hi [256]uint8) {
	for s := 257; s < maxLitCodes; s++ {
		base, extra := litBase[s]>>16, litBase[s]>>8&15
		for l := base; l < base+1<<extra && l <= maxMatch; l++ {
			le[l-3] = uint32(s-257) | extra<<8 | (l-base)<<16
		}
	}
	for s := range maxDistCodes {
		base, extra := int(distBase[s]>>16)-1, distBase[s]>>8&15
		for d := base; d < base+1<<extra; d++ {
			if d < 256 {
				lo[d] = uint8(s)
			} else {
				hi[d>>7] = uint8(s)
			}
		}
	}
	return le, lo, hi
}

// deflater is the encoder's state, pooled: the hash table, one block's
// tokens and histograms, its codes and the output.
type deflater struct {
	// table holds, per hash slot, the last position hashed there plus
	// cur, above the check bits of its key. An entry more than a window
	// behind every position of the current call — any entry of an earlier
	// call, and a zero — is no candidate, so the table is not cleared
	// between calls, and a body does not depend on what came before it.
	table [1 << hashBits]uint32
	cur   int
	// prev holds, per position modulo the window, the entry its slot held
	// before it: the chain of earlier positions at that slot.
	prev [windowSize]uint32

	tokens [blockTokens]uint32
	nt     int
	// chain is the current block's walk budget (nextChain).
	chain int

	litFreq  [maxLitCodes]uint32
	distFreq [maxDistCodes]uint32
	clFreq   [19]uint32

	litLens   [maxLitCodes]uint8
	litCodes  [maxLitCodes]uint32
	distLens  [maxDistCodes]uint8
	distCodes [maxDistCodes]uint32
	clLens    [19]uint8
	clCodes   [19]uint32

	// clSeq is the dynamic header's run-length coded code lengths: a
	// code-length symbol in the low byte and its repeat bits above.
	clSeq [maxLitCodes + maxDistCodes]uint16
	nseq  int

	w bitWriter
}

var deflaterPool = sync.Pool{New: func() any { return &deflater{cur: windowSize + 1} }}

// flateCompressBody appends the DEFLATE body of src to dst, in one run of
// blocks.
func flateCompressBody(dst, src []byte) []byte {
	d := deflaterPool.Get().(*deflater)
	defer deflaterPool.Put(d)
	return d.deflate(dst, src)
}

// deflate appends the DEFLATE body of src to dst, in one run of blocks.
func (d *deflater) deflate(dst, src []byte) []byte {
	d.begin(dst)
	d.compress(src, 0, len(src), true)
	return d.finish(len(src))
}

// begin readies d to append a body to dst.
func (d *deflater) begin(dst []byte) {
	d.w = bitWriter{out: dst}
	d.chain = maxChain
}

// finish flushes the last bits, detaches the output from the pooled
// state and moves the table offset past the n bytes just coded.
func (d *deflater) finish(n int) []byte {
	d.w.align()
	out := d.w.out
	d.w = bitWriter{}
	d.cur += n + windowSize + 1
	return out
}

// compress codes src[lo:hi] as blocks, setting BFINAL on the last one
// when final. Its matches may reach back into src[:lo] within the window.
func (d *deflater) compress(src []byte, lo, hi int, final bool) {
	for i := lo; ; {
		start := i
		i = d.parse(src, i, hi)
		d.chain = d.nextChain(i - start)
		d.writeBlock(src[start:i], final && i == hi)
		if i == hi {
			return
		}
	}
}

// nextChain is the walk budget for the block after the one just parsed,
// of n bytes, by the share of them its matches covered.
func (d *deflater) nextChain(n int) int {
	lits := 0
	for _, f := range d.litFreq[:256] {
		lits += int(f)
	}
	switch {
	case 4*lits <= n:
		return maxChain
	case 2*lits <= n:
		return midChain
	}
	return shallowChain
}

// parse fills the block's tokens from src[i:hi] until the block is full
// or hi is reached, and returns the position it stopped at.
//
//scdc:hot
//scdc:noalloc
func (d *deflater) parse(src []byte, i, hi int) int {
	if i+d.cur > tableRebase {
		d.rebase(i)
	}
	cur, table, prev, toks := d.cur, &d.table, &d.prev, &d.tokens
	lit, dist := &d.litFreq, &d.distFreq
	nt := 0
	limit := hi - lzMinMatch // the last position a 4-byte key fits at
	for i <= limit && nt < blockTokens-1 {
		v := load32(src, i)
		h, k := dhash(v)
		e := table[h]
		table[h] = uint32(i+cur)<<checkBits | k
		prev[i&(windowSize-1)] = e
		c := int(e>>checkBits) - cur
		if e&checkMask != k || i-c > windowSize || load32(src, c) != v {
			toks[nt] = v & 0xff
			lit[v&0xff]++
			nt++
			i++
			continue
		}
		c, l := d.longest(src, e, k, i, hi, d.chain)
		// Lazy matching: while the match is short and the next position
		// has a longer one, the byte here goes out as a literal.
		next := i + 1 // the next position to hash
		for l < lazyBelow && next <= limit && nt < blockTokens-1 {
			j := next
			v1 := load32(src, j)
			h1, k1 := dhash(v1)
			e1 := table[h1]
			table[h1] = uint32(j+cur)<<checkBits | k1
			prev[j&(windowSize-1)] = e1
			next++
			c1 := int(e1>>checkBits) - cur
			if e1&checkMask != k1 || j-c1 > windowSize || load32(src, c1) != v1 {
				break
			}
			chain := d.chain
			if l >= goodMatch {
				chain >>= 2
			}
			c1, l1 := d.longest(src, e1, k1, j, hi, chain)
			if l1 <= l {
				break
			}
			toks[nt] = uint32(src[i])
			lit[src[i]]++
			nt++
			i, c, l = j, c1, l1
		}
		toks[nt] = matchFlag | uint32(l-3)<<15 | uint32(i-c-1)
		lit[257+lenExtra[l-3]&0xff]++
		dist[distSym(uint32(i-c-1))]++
		nt++
		for j, end := next, min(i+l, limit+1); j < end; j++ {
			h, k := dhash(load32(src, j))
			prev[j&(windowSize-1)] = table[h]
			table[h] = uint32(j+cur)<<checkBits | k
		}
		i += l
	}
	if i > limit {
		for ; i < hi && nt < blockTokens; i++ {
			toks[nt] = uint32(src[i])
			lit[src[i]]++
			nt++
		}
	}
	d.nt = nt
	return i
}

// longest follows the chain of positions at i's hash slot from entry e, a
// verified 4-byte match, through at most maxChain candidates, and returns
// the longest match among them. Candidates whose check bits differ from
// k are skipped unread.
func (d *deflater) longest(src []byte, e, k uint32, i, hi, chain int) (c, l int) {
	end := min(hi, i+maxMatch)
	v := load32(src, i)
	for n := 0; n < chain; n++ {
		p := int(e>>checkBits) - d.cur
		if p >= i || i-p > windowSize {
			break
		}
		if e&checkMask == k && i+l < end && src[p+l] == src[i+l] && load32(src, p) == v {
			if m := lzMinMatch + matchLen(src, p+lzMinMatch, i+lzMinMatch, end); m > l {
				c, l = p, m
				if l >= niceMatch || i+l == end {
					break
				}
			}
		}
		// The chain link of p was written when p was hashed, and is
		// overwritten a window later.
		if i-p >= windowSize {
			break
		}
		e = d.prev[p&(windowSize-1)]
	}
	return c, l
}

// rebase lowers the table offset so that position i maps to windowSize+1,
// keeping every entry within a window of i and zeroing the rest: the parse
// sees the same candidates, however long the pool's history.
func (d *deflater) rebase(i int) {
	shift := d.cur - (windowSize + 1 - i)
	for _, t := range [][]uint32{d.table[:], d.prev[:]} {
		for s, e := range t {
			if p := int(e >> checkBits); p > shift {
				t[s] = uint32(p-shift)<<checkBits | e&checkMask
			} else {
				t[s] = 0
			}
		}
	}
	d.cur = windowSize + 1 - i
}

// dhash returns a 4-byte key's table slot and, from the hash's next bits,
// the check bits its entry keeps.
//
//scdc:inline
func dhash(v uint32) (slot, check uint32) {
	h := v * 2654435761
	return h >> (32 - hashBits), h >> (32 - hashBits - checkBits) & checkMask
}

// matchLen counts the bytes src[a:] and src[b:] share, a < b, up to end
// for b's side.
func matchLen(src []byte, a, b, end int) int {
	n := 0
	for ; b+n+8 <= end; n += 8 {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for b+n < end && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// distSym is the distance symbol of distance−1.
func distSym(d uint32) uint8 {
	if d < 256 {
		return distSymLo[d]
	}
	return distSymHi[d>>7]
}

// writeBlock writes the block's tokens, whose bytes are raw, as the
// smallest of a stored, a fixed and a dynamic block.
func (d *deflater) writeBlock(raw []byte, final bool) {
	toks := d.tokens[:d.nt]
	d.litFreq[256] = 1

	// The extra bits, which every Huffman block spends alike.
	extra := 0
	for s := 257; s < maxLitCodes; s++ {
		extra += int(d.litFreq[s]) * int(litBase[s]>>8&15)
	}
	for s, f := range d.distFreq {
		extra += int(f) * int(distBase[s]>>8&15)
	}
	fixed := 3 + extra + codeBits(d.litFreq[:], fixedLitLens[:]) + codeBits(d.distFreq[:], fixedDistLens[:])

	buildCode(d.litFreq[:], d.litLens[:], d.litCodes[:], 15)
	buildCode(d.distFreq[:], d.distLens[:], d.distCodes[:], 15)
	nlit, ndist, nclen, header := d.dynamicHeader()
	dynamic := 3 + header + extra + codeBits(d.litFreq[:], d.litLens[:]) + codeBits(d.distFreq[:], d.distLens[:])

	fb := uint32(0)
	if final {
		fb = 1
	}
	w := &d.w
	switch {
	case storedBits(w.n, len(raw)) < min(fixed, dynamic):
		w.stored(raw, final)
	case fixed <= dynamic:
		w.put(fb|1<<1, 3)
		w.tokens(toks, fixedLitCodes[:], fixedDistCodes[:])
		w.code(fixedLitCodes[256])
	default:
		w.put(fb|2<<1, 3)
		w.put(uint32(nlit-257), 5)
		w.put(uint32(ndist-1), 5)
		w.put(uint32(nclen-4), 4)
		for _, s := range clOrder[:nclen] {
			w.put(uint32(d.clLens[s]), 3)
		}
		for _, e := range d.clSeq[:d.nseq] {
			s := e & 0xff
			w.code(d.clCodes[s])
			w.put(uint32(e>>8), uint(clExtra[s]))
		}
		w.tokens(toks, d.litCodes[:], d.distCodes[:])
		w.code(d.litCodes[256])
	}
	clear(d.litFreq[:])
	clear(d.distFreq[:])
}

// clExtra is the repeat-count width of each code-length symbol.
var clExtra = [19]uint8{16: 2, 17: 3, 18: 7}

// codeBits is what freq costs under code lengths lens.
func codeBits(freq []uint32, lens []uint8) int {
	n := 0
	for s, f := range freq {
		n += int(f) * int(lens[s])
	}
	return n
}

// storedBits is what n bytes cost as stored blocks after a writer holding
// pending bits: each block a 3-bit header, the padding to a byte and the
// 4 bytes of LEN and NLEN.
func storedBits(pending uint, n int) int {
	blocks := max(1, (n+maxStoredBlock-1)/maxStoredBlock)
	pad := (8 - (pending+3)&7) & 7
	return 3 + int(pad) + 32 + (blocks-1)*(8+32) + 8*n
}

// dynamicHeader run-length codes the block's code lengths into clSeq,
// builds the code-length code, and returns the header's counts and its
// length in bits past the block type.
func (d *deflater) dynamicHeader() (nlit, ndist, nclen, nbits int) {
	nlit, ndist = maxLitCodes, maxDistCodes
	for nlit > 257 && d.litLens[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && d.distLens[ndist-1] == 0 {
		ndist--
	}
	var lens [maxLitCodes + maxDistCodes]uint8
	copy(lens[:], d.litLens[:nlit])
	copy(lens[nlit:], d.distLens[:ndist])
	all := lens[:nlit+ndist]

	clear(d.clFreq[:])
	d.nseq = 0
	emit := func(s, rep int) {
		d.clSeq[d.nseq] = uint16(s | rep<<8)
		d.nseq++
		d.clFreq[s]++
	}
	for i := 0; i < len(all); {
		l := all[i]
		run := 1
		for i+run < len(all) && all[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			run--
			for ; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
	buildCode(d.clFreq[:], d.clLens[:], d.clCodes[:], 7)
	nclen = len(clOrder)
	for nclen > 4 && d.clLens[clOrder[nclen-1]] == 0 {
		nclen--
	}
	nbits = 5 + 5 + 4 + 3*nclen
	for s, f := range d.clFreq {
		nbits += int(f) * int(d.clLens[s]+clExtra[s])
	}
	return nlit, ndist, nclen, nbits
}

// buildCode sets lens to Huffman code lengths for freq, no longer than
// limit bits, and codes to their canonical codes. A code gets at least
// two symbols, zero-frequency ones if need be.
func buildCode(freq []uint32, lens []uint8, codes []uint32, limit int) {
	// The symbols by ascending frequency, then symbol, as frequency<<16 |
	// symbol: taken in symbol order, then radix sorted on the frequency's
	// two low bytes, which hold every frequency a block can have.
	var keys, tmp [maxLitCodes]uint32
	n := 0
	for s, f := range freq {
		lens[s] = 0
		if f > 0 {
			keys[n] = f<<16 | uint32(s)
			n++
		}
	}
	for s := 0; n < 2; s++ {
		if freq[s] == 0 {
			keys[n] = uint32(s)
			n++
		}
	}
	radixPass(keys[:n], tmp[:n], 16)
	radixPass(tmp[:n], keys[:n], 24)
	sorted := keys[:n]
	var depth [maxLitCodes]int
	for i, k := range sorted {
		depth[i] = int(k >> 16)
	}
	minRedundancy(depth[:n])

	// Code lengths by count; lengths past limit are folded back into a
	// complete code, and the longest lengths go to the rarest symbols.
	var count [maxLitCodes + 1]int
	for _, l := range depth[:n] {
		count[l]++
	}
	if over := slices.ContainsFunc(count[limit+1:], func(c int) bool { return c > 0 }); over {
		for l := limit + 1; l < len(count); l++ {
			count[limit] += count[l]
			count[l] = 0
		}
		total := 0
		for l := limit; l > 0; l-- {
			total += count[l] << (limit - l)
		}
		// Each step takes a leaf off the deepest level and splits a
		// shallower one into two a level down: one unit of excess less.
		for ; total != 1<<limit; total-- {
			count[limit]--
			for l := limit - 1; l > 0; l-- {
				if count[l] > 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
		}
	}
	i := 0
	for l := limit; l > 0; l-- {
		for range count[l] {
			lens[sorted[i]&0xffff] = uint8(l)
			i++
		}
	}
	canonicalCodes(lens, codes)
}

// radixPass stably sorts src into dst by the byte of each key at shift.
func radixPass(src, dst []uint32, shift uint) {
	var start [257]int
	for _, k := range src {
		start[k>>shift&0xff+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for _, k := range src {
		b := k >> shift & 0xff
		dst[start[b]] = k
		start[b]++
	}
}

// minRedundancy turns a, frequencies in ascending order, into the code
// lengths of a Huffman code for them, in place (Moffat and Katajainen,
// "In-place calculation of minimum-redundancy codes", 1995).
func minRedundancy(a []int) {
	n := len(a)
	if n < 2 {
		return
	}
	// Left to right: each internal node's weight, then its parent.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Right to left: internal node depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Right to left: leaf depths.
	avail, used, depth := 1, 0, 0
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// canonicalCodes assigns lens' canonical codes, bit-reversed for LSB-first
// output, each with its length from bit 16.
func canonicalCodes(lens []uint8, codes []uint32) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}

// bitWriter appends bits LSB first: acc holds n < 32 pending bits.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// put writes the low k <= 32 bits of v.
func (w *bitWriter) put(v uint32, k uint) {
	w.acc |= uint64(v) << (w.n & 63)
	w.n += k
	if w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// code writes a code as canonicalCodes packs it.
func (w *bitWriter) code(c uint32) {
	w.put(c&0xffff, uint(c>>16))
}

// align pads the pending bits to a whole byte and writes them.
func (w *bitWriter) align() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// stored writes p as stored blocks, setting BFINAL on the last when final.
func (w *bitWriter) stored(p []byte, final bool) {
	for len(p) > 0 {
		m := min(len(p), maxStoredBlock)
		fb := uint32(0)
		if final && m == len(p) {
			fb = 1
		}
		w.put(fb, 3)
		w.align()
		w.out = binary.LittleEndian.AppendUint16(w.out, uint16(m))
		w.out = binary.LittleEndian.AppendUint16(w.out, ^uint16(m))
		w.out = append(w.out, p[:m]...)
		p = p[m:]
	}
}

// tokens writes toks under the literal/length code lc and the distance
// code dc.
func (w *bitWriter) tokens(toks []uint32, lc, dc []uint32) {
	acc, n, out := w.acc, w.n, w.out
	for _, t := range toks {
		if t < 256 {
			c := lc[t]
			acc |= uint64(c&0xffff) << (n & 63)
			n += uint(c >> 16)
		} else {
			// A match adds at most 48 bits: a 15-bit length code, 5 extra
			// bits, a 15-bit distance code and 13 extra bits.
			x := lenExtra[t>>15&0xff]
			c := lc[257+x&0xff]
			acc |= uint64(c&0xffff) << (n & 63)
			n += uint(c >> 16)
			acc |= uint64(x>>16) << (n & 63)
			n += uint(x >> 8 & 0xff)
			if n >= 32 {
				out = binary.LittleEndian.AppendUint32(out, uint32(acc))
				acc >>= 32
				n -= 32
			}
			dist := t & 0x7fff
			ds := distSym(dist)
			c, e := dc[ds], distBase[ds]
			acc |= uint64(c&0xffff) << (n & 63)
			n += uint(c >> 16)
			acc |= uint64(dist+1-e>>16) << (n & 63)
			n += uint(e >> 8 & 15)
		}
		if n >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	w.acc, w.n, w.out = acc, n, out
}
