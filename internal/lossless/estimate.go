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

// sampleProbe scans up to three estWindow-sized windows of src.
func sampleProbe(src []byte) probe {
	if len(src) == 0 {
		return probe{}
	}
	var hist [256]int
	var table [1 << estProbeBits]int32
	covered, matches, total := 0, 0, 0

	window := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hist[src[i]]++
		}
		total += hi - lo
		// Greedy match walk, the shape of an LZ parse: at each hit the
		// match is extended to its full length and the cursor skips past
		// it, so covered/matches measure what a match coder would emit
		// rather than raw seed-collision density (which saturates on
		// high-entropy data whose short motifs recur constantly but
		// compress no better than their literals).
		for i := lo; i+lzMinMatch <= hi; {
			seed := load32(src, i)
			h := lzHash(seed) >> (lzHashBits - estProbeBits)
			prev := int(table[h]) - 1
			table[h] = int32(i + 1)
			if prev >= lo && prev < i && load32(src, prev) == seed {
				l := lzMinMatch
				for i+l < hi && src[prev+l] == src[i+l] {
					l++
				}
				covered += l
				matches++
				i += l
				continue
			}
			i++
		}
	}

	if len(src) <= 3*estWindow {
		window(0, len(src))
	} else {
		window(0, estWindow)
		mid := len(src)/2 - estWindow/2
		window(mid, mid+estWindow)
		window(len(src)-estWindow, len(src))
	}

	var p probe
	n := float64(total)
	for _, c := range hist {
		if c == 0 {
			continue
		}
		f := float64(c) / n
		p.entropyBits -= f * math.Log2(f)
	}
	if total > 0 {
		p.matchCover = float64(covered) / float64(total)
		p.matchPerByte = float64(matches) / float64(total)
	}
	return p
}

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
		const flateMatchBits = 30
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
