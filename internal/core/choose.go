package core

import (
	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/obs"
	"scdc/internal/quantizer"
	"scdc/internal/rice"
)

// ChooseEncodingCoder is the entropy-stage decision over two index
// arrays: it picks between the original index array q and its
// QP-transformed counterpart qp by estimated entropy-coded size, then
// encodes only the winner. On data where the prediction does not pay
// (e.g. HPEZ has already absorbed the cross-direction correlation,
// Section VI-B), the compressor thus falls back to the base stream and
// records QP as disabled. It returns the encoded stream and whether the
// QP variant was kept. The compressors take the same decision over one
// array that QP transformed in place (Backend.Encode); this two-array
// form is its reference.
//
// The fallback guards the estimate, not the stream that is written. The
// keep/drop estimate (entropy.Dist.HuffmanBytes: Shannon entropy plus
// table overhead, one entropy.Analyze pass per candidate array, shared
// with the encoder's code tables) prices the plain Huffman layout. The
// encoder may then write the winner run-coded (huffman.EncodeDist), which
// is smaller than that layout whenever it is chosen, and the lossless
// stage runs after both. QP can therefore lose end to end although the
// estimate kept it: on the paper's rate-distortion grid QP-on writes a
// larger stream than QP-off in 13 of 168 cells (ROADMAP, "QP is kept only
// when it shrinks the stream that is written").
//
// Huffman is the one index encoder, so the Coder argument is ignored
// (entropy.CoderHuffman is the only value left), and so are the shard and
// worker counts: the winner is one Huffman block (huffman.EncodeDist),
// encoded on the calling goroutine.
//
// When sp is non-nil it gains (observation never changes the stream):
//
//	gauges   entropy_q_bits, entropy_qp_bits (bits/index, before/after QP)
//	counters est_bytes_q, est_bytes_qp, qp_kept (0/1),
//	         coder (entropy.CoderHuffman),
//	         est_bits_out (the plain-layout estimate the QP decision
//	         used), act_bits_out (the bits written, in whichever layout),
//	         bytes_out, table_bytes, symbols
func ChooseEncodingCoder(q, qp []int32, _ entropy.Coder, _, _ int, sp *obs.Span) (enc []byte, useQP bool) {
	d := entropy.Analyze(q)
	var dqp *entropy.Dist
	if qp != nil {
		dqp = entropy.Analyze(qp)
	}
	if useQP = keepQP(d, dqp, sp); useQP {
		q, d = qp, dqp
	}
	return encodeIndices(q, d, useQP, sp), useQP
}

// encodeSweep is ChooseEncodingCoder over the one symbol array of a
// compression sweep. With QP on, Sym holds the transformed symbols; one
// Analyze pass counts them, and the original symbols' distribution is
// derived from it and the sweep's record of moves, equal to counting
// them. When the estimate drops QP, the inverse sweep restores the
// original symbols in place before they are encoded. forced keeps the
// transformed symbols unpriced, as a QP-off call prices its only array.
func (s *Sweep) encodeSweep(forced bool, sp *obs.Span) (enc []byte, useQP bool) {
	d := entropy.Analyze(s.Sym)
	if s.mv == nil || forced {
		keepQP(d, nil, sp)
		return encodeIndices(s.Sym, d, false, sp), false
	}
	dq := s.mv.shift(d)
	if useQP = keepQP(dq, d, sp); !useQP {
		s.restore(s.Sym)
		d = dq
	}
	return encodeIndices(s.Sym, d, useQP, sp), useQP
}

// keepQP publishes the candidates' estimates on sp and reports whether
// the QP-transformed array's distribution dqp (nil when there is none)
// prices below the original's, d.
func keepQP(d, dqp *entropy.Dist, sp *obs.Span) bool {
	if sp != nil {
		sp.Add("symbols", int64(d.N))
		sp.Set("entropy_q_bits", d.EntropyBits())
		sp.Add("est_bytes_q", int64(d.HuffmanBytes()))
		if dqp != nil {
			sp.Set("entropy_qp_bits", dqp.EntropyBits())
			sp.Add("est_bytes_qp", int64(dqp.HuffmanBytes()))
		}
	}
	return dqp != nil && dqp.HuffmanBytes() < d.HuffmanBytes()
}

// encodeIndices encodes the chosen array q with its distribution d and
// publishes the outcome on sp.
func encodeIndices(q []int32, d *entropy.Dist, useQP bool, sp *obs.Span) []byte {
	enc := huffman.EncodeDist(q, d)
	if sp != nil {
		if useQP {
			sp.Add("qp_kept", 1)
		}
		sp.Add("coder", int64(entropy.CoderHuffman))
		sp.Add("est_bits_out", int64(d.HuffmanBytes())*8)
		sp.Add("act_bits_out", int64(len(enc))*8)
		sp.Add("bytes_out", int64(len(enc)))
		sp.Add("table_bytes", int64(huffman.TableBytes(enc)))
	}
	return enc
}

// DecodeIndices decodes the entropy-coded index stream of an n-point
// field, dispatching on the sub-format marker: rice streams (0x00 0x02,
// which earlier releases could write and nothing writes now) to
// rice.DecodeN, everything else — legacy single-body, 0x00 0x03
// run-coded and the decode-only 0x00 0x01 sharded Huffman — to
// huffman.DecodeTo, which decodes into a pooled index array (Sweep.Finish
// returns it). A stream that declares any count but n is corrupt before
// its n symbols are allocated.
func DecodeIndices(data []byte, n int) ([]int32, error) {
	if rice.IsRice(data) {
		return rice.DecodeN(data, n)
	}
	return huffman.DecodeTo(data, n, quantizer.GetIndexBuf)
}
