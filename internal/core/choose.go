package core

import (
	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/obs"
	"scdc/internal/rice"
)

// ChooseEncodingCoder is the entropy-stage front door. It picks between
// the original index array q and its QP-transformed counterpart qp by
// estimated entropy-coded size, then encodes only the winner. This is the
// "adaptive" guard that makes QP a strict no-regression option: on data
// where the prediction does not pay (e.g. HPEZ has already absorbed the
// cross-direction correlation, Section VI-B), the compressor falls back
// to the base stream and records QP as disabled. It returns the encoded
// stream and whether the QP variant was kept.
//
// One entropy.Analyze pass per candidate array feeds the QP-vs-base
// decision and the encoder's code tables, so nothing histograms an index
// array twice; the size estimate (entropy.Dist.HuffmanBytes: Shannon
// entropy plus table overhead) is far cheaper than encoding both and
// accurate to within a fraction of a percent for these skewed index
// distributions. Huffman is the one index encoder, so the Coder argument
// is ignored (entropy.CoderHuffman is the only value left). shards > 1
// encodes the winner as that many independent sub-streams under one
// shared code table (huffman.EncodeSharded), built on up to workers
// goroutines.
//
// The keep/drop estimate prices the plain Huffman layout. The encoder may
// then write the winner run-coded (huffman.EncodeDist), which is smaller
// than that layout whenever it is chosen, so on a low-entropy stream the
// written size falls below the estimate.
//
// When sp is non-nil it gains (observation never changes the stream):
//
//	gauges   entropy_q_bits, entropy_qp_bits (bits/index, before/after QP)
//	counters est_bytes_q, est_bytes_qp, qp_kept (0/1),
//	         coder (entropy.CoderHuffman),
//	         est_bits_out (the plain-layout estimate the QP decision
//	         used), act_bits_out (the bits written, in whichever layout),
//	         bytes_out, table_bytes, symbols
func ChooseEncodingCoder(q, qp []int32, _ entropy.Coder, shards, workers int, sp *obs.Span) (enc []byte, useQP bool) {
	d := entropy.Analyze(q)
	var dqp *entropy.Dist
	if qp != nil {
		dqp = entropy.Analyze(qp)
	}
	if sp != nil {
		sp.Add("symbols", int64(len(q)))
		sp.Set("entropy_q_bits", d.EntropyBits())
		sp.Add("est_bytes_q", int64(d.HuffmanBytes()))
		if dqp != nil {
			sp.Set("entropy_qp_bits", dqp.EntropyBits())
			sp.Add("est_bytes_qp", int64(dqp.HuffmanBytes()))
		}
	}
	if dqp != nil && dqp.HuffmanBytes() < d.HuffmanBytes() {
		q, d, useQP = qp, dqp, true
	}

	if shards <= 1 {
		enc = huffman.EncodeDist(q, d)
	} else {
		enc = huffman.EncodeShardedDist(q, d, shards, workers)
	}

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
	return enc, useQP
}

// DecodeIndices decodes the entropy-coded index stream of an n-point
// field, dispatching on the sub-format marker: rice streams (0x00 0x02,
// which earlier releases could write and nothing writes now) to
// rice.DecodeN, everything else — legacy single-body, 0x00 0x01 sharded
// and 0x00 0x03 run-coded Huffman — to huffman.DecodeParallel. A stream that declares
// any count but n is corrupt before its n symbols are allocated.
func DecodeIndices(data []byte, n, workers int) ([]int32, error) {
	if rice.IsRice(data) {
		return rice.DecodeN(data, n)
	}
	return huffman.DecodeParallel(data, n, workers)
}
