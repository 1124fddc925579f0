// Package rice implements an adaptive Golomb-Rice coder with a
// low-entropy run/escape sub-mode for quantization index streams — the
// second member of the entropy-coder family next to internal/huffman,
// modeled on the CCSDS-123.0-B-2 hybrid entropy coder (Golomb-power-of-2
// codes for high-entropy blocks, specialized run codes for the near-
// constant blocks QP-tuned index arrays are full of).
//
// Stream layout (rice/1):
//
//	0x00                 marker (shared zero-byte sub-format space; legacy
//	                     Huffman streams start with uvarint(hdrLen) >= 2)
//	0x02                 sub-format version (0x01 is sharded Huffman)
//	uvarint(n)           symbol count
//	varint(center)       reference symbol residuals are taken against
//	body                 MSB-first bit stream, zero-padded to a byte
//
// The body encodes blocks of 256 symbols (the last may be short). Each
// block opens with a 2-bit mode:
//
//	0  all-center: every symbol equals center, no payload
//	1  rice: 6-bit k, then one Golomb-Rice code per symbol of
//	   zigzag(sym-center) — k-bit remainder after a unary quotient; a
//	   quotient of 24 ones (no terminator) escapes to the raw 32-bit
//	   symbol
//	2  run/escape: 6-bit k, then alternating tokens: an Elias-gamma code
//	   of (run+1) counting center symbols, then (if the block is not yet
//	   full) one non-center literal coded as the Golomb-Rice code of
//	   zigzag(sym-center)-1, with the same 24-ones escape
//	3  invalid
//
// k values above 31 and gamma codes longer than value 257 are invalid, so
// hostile streams fail before any symbol is produced.
package rice

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"

	"scdc/internal/bitstream"
	"scdc/internal/entropy"
	"scdc/internal/verdict"
)

const (
	// Marker opens every rice stream (shared with the sharded-Huffman
	// sub-format space).
	Marker = 0x00
	// Version is the rice sub-format version byte.
	Version = 0x02

	blockLen   = entropy.RiceBlock
	maxK       = entropy.RiceMaxK
	escapeQuot = entropy.RiceEscapeQuot

	// maxGammaZeros bounds run-length gamma codes: runs fit a block, so
	// run+1 <= 257 < 1<<9 needs at most 8 leading zeros.
	maxGammaZeros = 8
)

// IsRice reports whether data begins with the rice sub-format marker.
func IsRice(data []byte) bool {
	return len(data) >= 2 && data[0] == Marker && data[1] == Version
}

// --- encoding ---

// Encode compresses q into a self-describing rice stream.
func Encode(q []int32) []byte {
	return EncodeDist(q, entropy.Analyze(q))
}

// EncodeDist is Encode reusing a distribution already computed by
// entropy.Analyze(q), so the coder decision's histogram pass also supplies
// the center symbol. d must describe exactly q.
func EncodeDist(q []int32, d *entropy.Dist) []byte {
	center := d.Center()
	out := make([]byte, 0, len(q)/4+24)
	out = append(out, Marker, Version)
	out = binary.AppendUvarint(out, uint64(len(q)))
	out = binary.AppendVarint(out, int64(center))
	if len(q) == 0 {
		return out
	}
	w := bitstream.NewWriter(len(q)/4 + 16)
	var ms [blockLen]uint64
	for off := 0; off < len(q); off += blockLen {
		end := off + blockLen
		if end > len(q) {
			end = len(q)
		}
		encodeBlock(w, q[off:end], center, ms[:end-off])
	}
	return append(out, w.Bytes()...)
}

// encodeBlock prices the three modes on one block and emits the cheapest.
// ms is caller scratch of exactly len(block).
//
// The reslices up front restate that contract where the prove pass can
// see it — both views share one length afterwards, so the mapping and
// emit loops index each other check-free — and the literal buffer is
// written through a suffix cursor whose emptiness guard replaces the
// unprovable lits[nl] bound (the nobounds contract below; the guard
// never fires because a block yields at most blockLen literals).
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func encodeBlock(w *bitstream.Writer, block []int32, center int32, ms []uint64) {
	n := len(block)
	if n > len(ms) {
		n = len(ms)
	}
	block = block[:n]
	ms = ms[:n]

	centers := 0
	for i, v := range block {
		m := entropy.ZigZag(int64(v) - int64(center))
		ms[i] = m
		if m == 0 {
			centers++
		}
	}
	if centers == len(block) {
		w.WriteBits(0, 2)
		return
	}

	k1, bits1 := bestK(ms)

	// Mode 2 pricing: gamma codes for the center runs, rice codes of m-1
	// for the literals.
	var lits [blockLen]uint64
	litTail := lits[:]
	runBits, run := 0, 0
	for _, m := range ms {
		if m == 0 {
			run++
			continue
		}
		runBits += gammaBits(uint(run) + 1)
		if len(litTail) > 0 {
			litTail[0] = m - 1
			litTail = litTail[1:]
		}
		run = 0
	}
	if run > 0 {
		runBits += gammaBits(uint(run) + 1)
	}
	// The cursor only shrinks, so this clamp never fires — it restates
	// len(litTail) <= blockLen for the prove pass.
	nl := blockLen - len(litTail)
	if nl < 0 {
		nl = 0
	}
	k2, litBits := bestK(lits[:nl])
	bits2 := runBits + litBits

	if bits2 < bits1 {
		w.WriteBits(2, 2)
		w.WriteBits(uint64(k2), 6)
		run = 0
		for i, m := range ms {
			if m == 0 {
				run++
				continue
			}
			emitGamma(w, uint(run)+1)
			emitRice(w, block[i], m-1, k2)
			run = 0
		}
		if run > 0 {
			emitGamma(w, uint(run)+1)
		}
		return
	}
	w.WriteBits(1, 2)
	w.WriteBits(uint64(k1), 6)
	for i, m := range ms {
		emitRice(w, block[i], m, k1)
	}
}

// emitRice writes the Golomb-Rice code of mapped value m at parameter k:
// a unary quotient, a zero terminator, and the k-bit remainder. Quotients
// of escapeQuot or more escape to escapeQuot ones (no terminator) followed
// by the raw 32-bit symbol.
func emitRice(w *bitstream.Writer, sym int32, m uint64, k uint) {
	q := m >> k
	if q < escapeQuot {
		// q ones, one zero, k remainder bits: at most 23+1+31 = 55 bits.
		w.WriteBits(((1<<q)-1)<<(k+1)|m&(1<<k-1), uint(q)+1+k)
		return
	}
	w.WriteBits(1<<escapeQuot-1, escapeQuot)
	w.WriteBits(uint64(uint32(sym)), 32)
}

// emitGamma writes the Elias-gamma code of v >= 1: z zeros then the z+1
// bits of v, where z = floor(log2 v).
//
//scdc:inline
func emitGamma(w *bitstream.Writer, v uint) {
	z := uint(mbits.Len(uint(v))) - 1
	w.WriteBits(uint64(v), 2*z+1)
}

// gammaBits prices emitGamma.
//
//scdc:inline
func gammaBits(v uint) int {
	return 2*(mbits.Len(uint(v))-1) + 1
}

// bestK picks the Rice parameter for vals: a mean-derived starting point,
// then exact pricing of the nearby candidates (ties to the smaller k, so
// the choice is deterministic). The pricing loops only range, so the
// whole pricer holds the nobounds contract alongside encodeBlock.
//
//scdc:hot
//scdc:noalloc
//scdc:nobounds
func bestK(vals []uint64) (uint, int) {
	if len(vals) == 0 {
		return 0, 0
	}
	var total uint64
	for _, m := range vals {
		total += m
	}
	k0 := 0
	for k0 < maxK && total>>uint(k0+1) >= uint64(len(vals)) {
		k0++
	}
	lo, hi := k0-2, k0+2
	if lo < 0 {
		lo = 0
	}
	if hi > maxK {
		hi = maxK
	}
	bestKv, bestBits := uint(lo), int(^uint(0)>>1)
	for k := lo; k <= hi; k++ {
		bits := 0
		for _, m := range vals {
			bits += entropy.RiceCodeBits(m, uint(k))
		}
		if bits < bestBits {
			bestBits = bits
			bestKv = uint(k)
		}
	}
	return bestKv, bestBits
}

// --- decoding ---

func unZigZag(m uint64) int64 { return int64(m>>1) ^ -int64(m&1) }

// Decode reverses Encode. All structural failures wrap verdict.ErrCorrupt. It
// trusts the declared sample count up to what the body could hold at two
// mode bits per block; a caller that knows the count passes it to DecodeN.
func Decode(data []byte) ([]int32, error) {
	return DecodeN(data, -1)
}

// DecodeN is Decode for a stream that must hold exactly want symbols: one
// that declares any other count is corrupt before its output is allocated.
// want < 0 accepts whatever the body could hold.
func DecodeN(data []byte, want int) ([]int32, error) {
	if !IsRice(data) {
		return nil, fmt.Errorf("%w: rice: bad marker", verdict.ErrCorrupt)
	}
	data = data[2:]
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: rice: bad sample count", verdict.ErrCorrupt)
	}
	if want >= 0 && n != uint64(want) {
		return nil, fmt.Errorf("%w: rice: %d samples declared, want %d", verdict.ErrCorrupt, n, want)
	}
	data = data[k:]
	center64, k := binary.Varint(data)
	if k <= 0 || center64 < -1<<31 || center64 > 1<<31-1 {
		return nil, fmt.Errorf("%w: rice: bad center symbol", verdict.ErrCorrupt)
	}
	body := data[k:]
	// Every 256-symbol block costs at least its 2 mode bits, so a body of
	// B bytes can describe at most 1024*B symbols; reject hostile sample
	// counts before allocating the output.
	if n > 1024*uint64(len(body)) {
		return nil, fmt.Errorf("%w: rice: %d samples for %d-byte body", verdict.ErrCorrupt, n, len(body))
	}
	center := int32(center64)
	out := make([]int32, n)
	r := bitstream.NewReader(body)
	for off := 0; off < len(out); off += blockLen {
		end := off + blockLen
		if end > len(out) {
			end = len(out)
		}
		if err := decodeBlock(r, out[off:end], center); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeBlock decodes one block into out.
//
//scdc:hot
//scdc:nobounds
func decodeBlock(r *bitstream.Reader, out []int32, center int32) error {
	mode, err := r.ReadBits(2)
	if err != nil {
		return fmt.Errorf("%w: rice: truncated block mode", verdict.ErrCorrupt)
	}
	switch mode {
	case 0:
		for i := range out {
			out[i] = center
		}
		return nil
	case 1:
		k, err := readK(r)
		if err != nil {
			return err
		}
		for i := range out {
			sym, err := readRice(r, center, k, 0)
			if err != nil {
				return err
			}
			out[i] = sym
		}
		return nil
	case 2:
		k, err := readK(r)
		if err != nil {
			return err
		}
		// The cursor is the unfilled suffix of out: run fills and literal
		// stores are then range/len-guarded slice ops the prove pass
		// eliminates, where the original index-plus-run bookkeeping kept
		// a bounds check on every store.
		tail := out
		for len(tail) > 0 {
			run, err := readGamma(r)
			if err != nil {
				return err
			}
			n := uint(run)
			if n > uint(len(tail)) {
				return fmt.Errorf("%w: rice: run of %d overflows block", verdict.ErrCorrupt, run)
			}
			fill := tail[:n]
			for j := range fill {
				fill[j] = center
			}
			tail = tail[n:]
			if len(tail) == 0 {
				break
			}
			sym, err := readRice(r, center, k, 1)
			if err != nil {
				return err
			}
			tail[0] = sym
			tail = tail[1:]
		}
		return nil
	default:
		return fmt.Errorf("%w: rice: invalid block mode %d", verdict.ErrCorrupt, mode)
	}
}

// readK reads the 6-bit Rice parameter; values above maxK are invalid.
func readK(r *bitstream.Reader) (uint, error) {
	k, err := r.ReadBits(6)
	if err != nil {
		return 0, fmt.Errorf("%w: rice: truncated rice parameter", verdict.ErrCorrupt)
	}
	if k > maxK {
		return 0, fmt.Errorf("%w: rice: oversized rice parameter %d", verdict.ErrCorrupt, k)
	}
	return uint(k), nil
}

// readRice decodes one Golomb-Rice code: the mapped value is offset by
// bias (0 in rice mode, 1 for run-mode literals) before unmapping against
// center. An escapeQuot-ones quotient yields the raw 32-bit symbol.
func readRice(r *bitstream.Reader, center int32, k uint, bias uint64) (int32, error) {
	// One peek covers the longest legal unary prefix (escapeQuot = 24
	// ones); bits past the end read as zero, so a truncated quotient
	// surfaces as a Skip past the end.
	q := uint(mbits.LeadingZeros32(^uint32(r.PeekBits(32))))
	if q >= escapeQuot {
		if err := r.Skip(escapeQuot); err != nil {
			return 0, fmt.Errorf("%w: rice: truncated escape", verdict.ErrCorrupt)
		}
		raw, err := r.ReadBits(32)
		if err != nil {
			return 0, fmt.Errorf("%w: rice: truncated escape literal", verdict.ErrCorrupt)
		}
		return int32(uint32(raw)), nil
	}
	if err := r.Skip(q + 1); err != nil {
		return 0, fmt.Errorf("%w: rice: truncated quotient", verdict.ErrCorrupt)
	}
	low, err := r.ReadBits(k)
	if err != nil {
		return 0, fmt.Errorf("%w: rice: truncated remainder", verdict.ErrCorrupt)
	}
	m := (uint64(q)<<k | low) + bias
	return int32(int64(center) + unZigZag(m)), nil
}

// readGamma decodes one Elias-gamma run code, returning the run length
// (value-1). Codes needing more than maxGammaZeros zeros cannot describe
// a legal run and are rejected.
func readGamma(r *bitstream.Reader) (int, error) {
	z := uint(mbits.LeadingZeros32(uint32(r.PeekBits(32))))
	if z > maxGammaZeros {
		return 0, fmt.Errorf("%w: rice: oversized run code", verdict.ErrCorrupt)
	}
	if err := r.Skip(z + 1); err != nil {
		return 0, fmt.Errorf("%w: rice: truncated run code", verdict.ErrCorrupt)
	}
	rest, err := r.ReadBits(z)
	if err != nil {
		return 0, fmt.Errorf("%w: rice: truncated run code", verdict.ErrCorrupt)
	}
	return int((uint64(1)<<z | rest) - 1), nil
}
