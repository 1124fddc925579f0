package huffman

// Sharded Huffman container: the symbol stream is split into K contiguous
// shards that share one canonical code table, each an independently
// decodable body. Earlier releases wrote it for Options.Shards > 1; no
// encoder writes it now, and Decode still reads it, shard after shard.
//
// Layout:
//
//	0x00                      marker (legacy streams start with
//	                          uvarint(hdrLen) >= 2, so a leading zero byte
//	                          is unambiguous)
//	0x01                      sub-format version
//	uvarint(hdrLen) hdr       shared canonical table header, identical to
//	                          the legacy header (total sample count, table
//	                          size, zigzag delta symbol/length pairs)
//	shard directory + bodies  internal/shard
//
// The byte sub-format (bytes.go) ends in the same directory.

const (
	shardedMarker  = 0x00
	shardedVersion = 0x01
)
