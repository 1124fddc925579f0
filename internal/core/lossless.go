package core

import (
	"scdc/internal/lossless"
	"scdc/internal/obs"
)

// The lossless back-end front doors: every engine funnels its final
// byte-stream stage through these two calls so the "lossless" telemetry
// span, the sharded-container policy and the allocation bounds live in
// one place (mirroring ChooseEncodingCoder for the entropy stage).

// CompressLossless runs the lossless back-end over buf under a
// "lossless" child span of parent. lossless.Auto picks store, Huffman or
// flate from the size estimator and, past the container's size floor,
// writes the parallel sharded container with a pick per shard; every
// other codec writes the whole-buffer format. The output depends only on
// (c, buf) — never on workers.
func CompressLossless(c lossless.Codec, buf []byte, workers int, parent *obs.Span) ([]byte, error) {
	sp := parent.Child("lossless")
	var out []byte
	var err error
	if c == lossless.Auto {
		out, err = lossless.CompressSharded(c, buf, workers)
	} else {
		out, err = lossless.Compress(c, buf)
	}
	sp.Add("bytes_in", int64(len(buf)))
	sp.Add("bytes_out", int64(len(out)))
	sp.End()
	return out, err
}

// DecompressLossless reverses CompressLossless under a "lossless" child
// span of parent, fanning sharded-container streams across up to
// workers goroutines. maxOut bounds the header-declared plaintext size
// (pass lossless.PayloadLimit of the decoded point count); a stream
// that claims more fails with verdict.ErrCorrupt before allocating.
func DecompressLossless(payload []byte, maxOut, workers int, parent *obs.Span) ([]byte, error) {
	sp := parent.Child("lossless")
	buf, err := lossless.DecompressLimit(payload, maxOut, workers)
	sp.Add("bytes_in", int64(len(payload)))
	sp.Add("bytes_out", int64(len(buf)))
	sp.End()
	return buf, err
}
