package huffman

import "encoding/binary"

// TableBytes reports the size of the canonical code-table header inside
// an encoded stream (plain, sharded or run-coded layout) without decoding
// it — the per-stream table overhead surfaced by the telemetry layer. It
// returns 0 for streams it cannot parse; it never errors, because callers
// only annotate reports with it.
func TableBytes(data []byte) int {
	if len(data) >= 2 && data[0] == shardedMarker {
		if data[1] != shardedVersion && data[1] != runVersion {
			return 0
		}
		data = data[2:]
	}
	hdrLen, k := binary.Uvarint(data)
	if k <= 0 || hdrLen > uint64(len(data)-k) {
		return 0
	}
	return int(hdrLen)
}
