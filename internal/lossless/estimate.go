package lossless

import "math"

// Size estimation for the lossless back-ends, in the mold of
// internal/entropy's Dist estimators: one cheap sampled probe over the
// buffer yields an order-0 entropy figure and a 4-byte match-coverage
// figure, from which every codec's output size is priced without
// running it. The Auto codec resolves to the cheapest estimate, per
// shard in the sharded container. The probe iterates in buffer order
// only (no maps), so the estimate — and therefore the codec choice the
// stream records — is deterministic (DESIGN.md §8 streamdeterminism).

const (
	// estWindow is one sampled window; up to three (head, middle, tail)
	// are probed so a buffer whose character shifts — headers up front,
	// literals at the back — is not misjudged from its first bytes.
	estWindow = 16 << 10
	// estProbeBits sizes the match-probe hash table.
	estProbeBits = 12
)

// probe holds the sampled statistics the codecs are priced from.
type probe struct {
	// entropyBits is the order-0 entropy of the sampled bytes, in bits
	// per byte (0..8).
	entropyBits float64
	// matchCover is the fraction of sampled bytes covered by greedily
	// extended matches — a stand-in for flate's match coverage.
	matchCover float64
	// matchPerByte is matches per sampled byte; with matchCover it fixes
	// the average match length, which is what separates "long repeats a
	// match coder feasts on" from "4-byte seed collisions that barely
	// pay for their length/distance codes".
	matchPerByte float64
}

// probeWindows returns the [lo, hi) windows the probe samples: all of an
// n-byte buffer up to three estWindows, else its head, middle and tail.
func probeWindows(n int) (w [3][2]int, k int) {
	if n <= 3*estWindow {
		w[0] = [2]int{0, n}
		return w, 1
	}
	mid := n/2 - estWindow/2
	w[0] = [2]int{0, estWindow}
	w[1] = [2]int{mid, mid + estWindow}
	w[2] = [2]int{n - estWindow, n}
	return w, 3
}

// sampleProbe scans up to three estWindow-sized windows of src.
func sampleProbe(src []byte) probe {
	p := probe{entropyBits: sampledEntropy(src)}
	p.walkMatches(src)
	return p
}

// walkMatches sets p's match statistics from src's probe windows.
func (p *probe) walkMatches(src []byte) {
	if len(src) == 0 {
		return
	}
	var table [1 << estProbeBits]int32
	covered, matches, total := 0, 0, 0
	w, k := probeWindows(len(src))
	for _, lh := range w[:k] {
		c, m := matchWalk(src, lh[0], lh[1], &table)
		covered += c
		matches += m
		total += lh[1] - lh[0]
	}
	p.matchCover = float64(covered) / float64(total)
	p.matchPerByte = float64(matches) / float64(total)
}

// sampledEntropy is the order-0 entropy, in bits per byte, of the bytes
// in src's probe windows.
func sampledEntropy(src []byte) float64 {
	var hist [256]int
	total := 0
	w, k := probeWindows(len(src))
	for _, lh := range w[:k] {
		for _, c := range src[lh[0]:lh[1]] {
			hist[c]++
		}
		total += lh[1] - lh[0]
	}
	h, n := 0.0, float64(total)
	for _, c := range hist {
		if c == 0 {
			continue
		}
		f := float64(c) / n
		h -= f * math.Log2(f)
	}
	return h
}

// matchWalk is a greedy match walk over src[lo:hi], the shape of an LZ
// parse: at each hit the match is extended to its full length and the
// cursor skips past it, so covered/matches measure what a match coder
// would emit rather than raw seed-collision density (which saturates on
// high-entropy data whose short motifs recur constantly but compress no
// better than their literals). table carries over between the windows of
// one probe; entries before lo never match.
func matchWalk(src []byte, lo, hi int, table *[1 << estProbeBits]int32) (covered, matches int) {
	for i := lo; i+lzMinMatch <= hi; {
		seed := load32(src, i)
		h := lzHash(seed) >> (lzHashBits - estProbeBits)
		prev := int(table[h]) - 1
		table[h] = int32(i + 1)
		if prev < lo || load32(src, prev) != seed {
			i++
			continue
		}
		l := lzMinMatch
		for i+l < hi && src[prev+l] == src[i+l] {
			l++
		}
		covered += l
		matches++
		i += l
	}
	return covered, matches
}

// flateMatchBits is the flate estimate's all-in price of one match, in
// bits (see estimate).
const flateMatchBits = 30

// estimate prices one codec from the probe statistics, the way the
// codec actually spends bytes: flate pays the order-0 entropy for
// unmatched bytes and a small per-match residue, Huffman pays the
// order-0 entropy everywhere plus its code table, and store pays the
// input verbatim.
func (p probe) estimate(c Codec, n int) int {
	fn := float64(n)
	switch c {
	case Flate:
		// Literals pay the order-0 entropy; each match replaces its
		// covered literals with a length/distance pair. flateMatchBits is
		// the all-in price of one short match — length and distance codes
		// plus their extra bits plus the literal-table degradation the
		// match leaves behind — so the 4-6 byte seed collisions that
		// saturate entropy-coded input price out near break-even (matching
		// measured DEFLATE behaviour, which nets well under 1% on such
		// buffers), while long repeats still register as big savings
		// through matchCover. The entropy term is shared with the Huffman
		// estimate below, so the flate-vs-Huffman pick reduces to these
		// match savings against the 256-byte table — sampling error in the
		// entropy itself cancels.
		bitsPerByte := (1-p.matchCover)*p.entropyBits + p.matchPerByte*flateMatchBits
		return int(fn*bitsPerByte/8) + 64
	case Huffman:
		// Flat 256-byte code-length table plus the sub-format header and
		// shard directory (huffman/bytes.go).
		return int(fn*p.entropyBits/8) + 232
	default: // None, Store
		return n + 6
	}
}

// pick resolves the Auto codec for an n-byte buffer: the cheapest of
// store, Huffman and flate by estimate. The estimates only rank
// reliably outside a few percent, so within estSlack of the minimum the
// cheaper-to-run codec wins — candidates are ordered by decreasing
// codec speed, which is how a match-free entropy-stage buffer routes to
// the Huffman byte codec instead of a DEFLATE pass that would shave
// nothing but sampling noise.
func (p probe) pick(n int) Codec {
	const estSlack = 1.02
	cands := [...]Codec{None, Huffman, Flate}
	var ests [len(cands)]int
	best := -1
	for i, c := range cands {
		ests[i] = p.estimate(c, n)
		if best < 0 || ests[i] < best {
			best = ests[i]
		}
	}
	for i, c := range cands {
		if float64(ests[i]) <= estSlack*float64(best) {
			return c
		}
	}
	return Flate
}

// pickCodec is probe-then-pick for one buffer (or one shard of the
// sharded container).
func pickCodec(src []byte) Codec {
	return sampleProbe(src).pick(len(src))
}

// flatePaysFrac is the share of a segment's length the flate estimate
// must come in under for the Flate encoder to run DEFLATE on it.
const flatePaysFrac = 0.999

// flateBlock is how many bytes of a match-free segment the writer codes
// in one block, a token each; each block carries its own code tables.
const flateBlock = blockTokens

// flateBlockBytes is what a dynamic block costs DEFLATE beyond the
// order-0 entropy of its own bytes: its header of code lengths and the
// loss to whole-bit codes. compress/flate at level 6 coded 12 blocks of
// mgard_tight's Huffman-body segments dynamically, each at 112 to 135 B
// over its bytes' entropy, 125 B on average; the in-package writer codes
// 8 of the 104 such blocks of today's plaintexts dynamically, at 107 to
// 129 B, 118.5 B on average (level 6: 122.4 B on the same 8).
const flateBlockBytes = 125

// flatePays reports whether DEFLATE on seg is priced under flatePaysFrac
// of its stored length. Where the probe finds no match, DEFLATE can only
// entropy-code, and flatePrice prices that exactly; elsewhere the
// probe's flate estimate decides, since its match pricing falls short of
// what the writer's matches save.
func flatePays(seg []byte) bool {
	limit := flatePaysFrac * float64(len(seg))
	blocksPay := float64(flatePrice(seg)) < limit
	p := probe{entropyBits: sampledEntropy(seg)}
	// A match covers at least lzMinMatch bytes for flateMatchBits, so
	// matches move the estimate toward flateMatchBits/lzMinMatch bits per
	// byte and never above max(entropy, that). When even that bound
	// clears the limit (by a byte, for rounding), and so does the price
	// without matches, the walk cannot change the answer: the order-0
	// entropy alone decides every segment that compresses by its byte
	// statistics.
	bound := probe{entropyBits: max(p.entropyBits, float64(flateMatchBits)/lzMinMatch)}
	if blocksPay && float64(bound.estimate(Flate, len(seg))+1) < limit {
		return true
	}
	p.walkMatches(seg)
	if p.matchCover == 0 {
		return blocksPay
	}
	return float64(p.estimate(Flate, len(seg))) < limit
}

// flatePrice prices DEFLATE on seg, matches aside, the way the writer
// spends bytes: each flateBlock gets its own dynamic code tables, at its
// bytes' order-0 entropy plus flateBlockBytes, unless storing it (its
// bytes and a 5-byte header) is smaller. A block is one whole probe
// window, so sampledEntropy is its entropy.
func flatePrice(seg []byte) int {
	price := 0
	for lo := 0; lo < len(seg); lo += flateBlock {
		blk := seg[lo:min(lo+flateBlock, len(seg))]
		price += min(int(float64(len(blk))*sampledEntropy(blk)/8)+flateBlockBytes, len(blk)+5)
	}
	return price
}
