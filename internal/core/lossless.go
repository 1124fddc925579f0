package core

import (
	"scdc/internal/lossless"
	"scdc/internal/obs"
)

// The lossless back-end front doors: every engine funnels its final
// byte-stream stage through these two calls so the "lossless" telemetry
// span and the allocation bounds live in one place (mirroring
// ChooseEncodingCoder for the entropy stage).

// CompressLossless runs the lossless back-end over buf under a
// "lossless" child span of parent.
func CompressLossless(c lossless.Codec, buf []byte, parent *obs.Span) ([]byte, error) {
	sp := parent.Child("lossless")
	out, err := lossless.Compress(c, buf)
	sp.Add("bytes_in", int64(len(buf)))
	sp.Add("bytes_out", int64(len(out)))
	sp.End()
	return out, err
}

// DecompressLossless reverses CompressLossless under a "lossless" child
// span of parent. maxOut bounds the header-declared plaintext size (pass
// lossless.PayloadLimit of the decoded point count); a stream that claims
// more fails with verdict.ErrCorrupt before allocating. The third
// argument, a worker count, is ignored: every layout decodes on the
// calling goroutine.
func DecompressLossless(payload []byte, maxOut, _ int, parent *obs.Span) ([]byte, error) {
	sp := parent.Child("lossless")
	buf, err := lossless.DecompressLimit(payload, maxOut)
	sp.Add("bytes_in", int64(len(payload)))
	sp.Add("bytes_out", int64(len(buf)))
	sp.End()
	return buf, err
}
