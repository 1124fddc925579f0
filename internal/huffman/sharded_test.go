package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"scdc/internal/entropy"
	"scdc/internal/shard"
	"scdc/internal/shardtest"
	"scdc/internal/verdict"
)

// minShardSamples kept the shards of the writers below large enough that
// the per-shard padding and directory entry were noise next to the body.
const minShardSamples = 4096

// byteMaxLen is the longest code the byte sub-format's 6-bit table can
// record. A code of length L needs ~Fibonacci(L+2) samples, so 63 is
// unreachable from any real buffer; EncodeBytesTo still depth-limits by
// halving counts so the encoder is total rather than trusting that bound.
const byteMaxLen = 63

// EncodeBytesTo is the writer of the byte sub-format (0xB7, the body of
// lossless tag 7) as earlier releases ran it: src as a byte-alphabet
// Huffman stream of the given shard count, appended to dst. It lives here
// so the decoder's tests can still build the layout.
func EncodeBytesTo(dst, src []byte, shards int) []byte {
	dst = append(dst, byteMarker, byteVersion)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	syms := make([]int32, len(src))
	for i, b := range src {
		syms[i] = int32(b)
	}
	d := entropy.Analyze(syms)
	table, _ := codeLengths(d)
	// codeLengths is canonical-sorted, so the last entry is the deepest.
	for table[len(table)-1].len > byteMaxLen {
		for i := range d.Syms {
			d.Syms[i].Count = (d.Syms[i].Count + 1) >> 1
		}
		table, _ = codeLengths(d)
	}
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense)
	var lens [byteTableLen]byte
	for _, sl := range table {
		lens[sl.sym] = byte(sl.len)
	}
	for g := 0; g < byteTableLen/4; g++ {
		v := uint32(lens[4*g])<<18 | uint32(lens[4*g+1])<<12 | uint32(lens[4*g+2])<<6 | uint32(lens[4*g+3])
		dst = append(dst, byte(v>>16), byte(v>>8), byte(v))
	}
	return encodeShards(dst, syms, &cs, max(1, min(shards, len(src)/minShardSamples)))
}

// encodeShards encodes syms as k contiguous shards under one code set and
// appends the shard directory and bodies (shard.AppendDir) that close
// both sharded sub-formats. Shard i covers samples [i*n/K, (i+1)*n/K), and
// each body is an independently padded bit stream.
func encodeShards(dst []byte, syms []int32, cs *codeSet, k int) []byte {
	n := len(syms)
	dir := make([]shard.Shard, k)
	for i := range dir {
		part := syms[i*n/k : (i+1)*n/k]
		dir[i] = shard.Shard{N: len(part), Body: encodeBody(nil, part, cs)}
	}
	return shard.AppendDir(dst, dir, false)
}

// encodeSharded is the writer of the sharded index sub-format (0x00 0x01)
// as earlier releases ran it for Options.Shards: q as shards sub-streams
// under one code table from q's own histogram. shards <= 1, or a stream
// too small to split, falls back to EncodeDist. It lives here so the
// decoder's tests and fuzzers can still build the layout.
func encodeSharded(q []int32, shards int) []byte {
	d := entropy.Analyze(q)
	shards = min(shards, len(q)/minShardSamples)
	if shards <= 1 {
		return EncodeDist(q, d)
	}
	table, _ := codeLengths(d)
	cs := buildCodes(table, d.Lo, d.Hi, d.Dense)
	hdr := appendTableHeader(nil, len(q), table)
	out := append([]byte{shardedMarker, shardedVersion}, binary.AppendUvarint(nil, uint64(len(hdr)))...)
	return encodeShards(append(out, hdr...), q, &cs, shards)
}

func skewed(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]int32, n)
	for i := range q {
		q[i] = 32768 + int32(rng.NormFloat64()*3)
	}
	return q
}

func shardedRoundTrip(t *testing.T, q []int32, shards int) []byte {
	t.Helper()
	enc := encodeSharded(q, shards)
	dec, err := DecodeN(enc, len(q))
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if len(dec) != len(q) {
		t.Fatalf("shards=%d: %d symbols, want %d", shards, len(dec), len(q))
	}
	for i := range q {
		if dec[i] != q[i] {
			t.Fatalf("shards=%d: symbol %d differs", shards, i)
		}
	}
	return enc
}

func TestShardedRoundTrip(t *testing.T) {
	q := skewed(100_000, 1)
	for _, shards := range []int{2, 4, 7, 16} {
		shardedRoundTrip(t, q, shards)
	}
}

func TestShardedFallsBackToLegacy(t *testing.T) {
	// Streams too small to split, and shards <= 1, must produce the legacy
	// format byte for byte.
	small := skewed(100, 2)
	legacy := encode(small)
	for _, shards := range []int{0, 1, 8} {
		if got := encodeSharded(small, shards); !bytes.Equal(got, legacy) {
			t.Fatalf("shards=%d on small input: not legacy format", shards)
		}
	}
	big := skewed(50_000, 3)
	if got := encodeSharded(big, 1); !bytes.Equal(got, encode(big)) {
		t.Fatal("shards=1: not legacy format")
	}
}

func TestShardedMarkerUnambiguous(t *testing.T) {
	// Legacy streams start with uvarint(hdrLen) where hdrLen >= 2, so the
	// first byte is never 0x00; sharded streams always start with 0x00.
	for _, q := range [][]int32{{}, {5}, {1, 2, 3}, skewed(1000, 4)} {
		if enc := encode(q); len(enc) > 0 && enc[0] == shardedMarker {
			t.Fatal("legacy stream starts with sharded marker")
		}
	}
	enc := encodeSharded(skewed(50_000, 5), 4)
	if enc[0] != shardedMarker || enc[1] != shardedVersion {
		t.Fatal("sharded stream missing marker/version")
	}
}

// TestShardedBufferReuse drives back-to-back sharded encodes of different
// arrays: the pooled code-length scratch must never leak one call's
// state into the next.
func TestShardedBufferReuse(t *testing.T) {
	big := skewed(60_000, 3)
	small := skewed(20_000, 9)
	wantBig := append([]byte(nil), encodeSharded(big, 4)...)
	wantSmall := append([]byte(nil), encodeSharded(small, 4)...)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(encodeSharded(big, 4), wantBig) {
			t.Fatalf("iteration %d: big stream drifted under buffer reuse", i)
		}
		if !bytes.Equal(encodeSharded(small, 4), wantSmall) {
			t.Fatalf("iteration %d: small stream drifted under buffer reuse", i)
		}
	}
}

func TestShardedCorrupt(t *testing.T) {
	q := skewed(60_000, 7)
	enc := encodeSharded(q, 4)

	// Truncations at every prefix length must error, never panic.
	for l := 0; l < len(enc); l += 97 {
		if _, err := DecodeN(enc[:l], -1); err == nil && l < len(enc)-1 {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}
	// Single-byte mutations across the header region must error or decode
	// to something — never panic or hang.
	for i := 1; i < 64 && i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xA5
		_, _ = DecodeN(mut, -1)
	}
	// Bad version.
	bad := append([]byte(nil), enc...)
	bad[1] = 0x7F
	if _, err := DecodeN(bad, -1); err == nil {
		t.Error("unknown sharded version accepted")
	}
}

// dirReader is one of this package's two readers of a shard directory:
// the index sub-format (0x00 0x01) and the byte sub-format (0xB7), which
// end in the same directory (internal/shard).
type dirReader struct {
	name   string
	enc    []byte // a stream of three shards, as the encoder wrote it
	dirOff int    // where its directory starts
	total  int    // samples it declares
	decode func([]byte) error
}

func dirReaders(n int) []dirReader {
	q := skewed(n, 11)
	raw := make([]byte, len(q))
	for i, v := range q {
		raw[i] = byte(v)
	}
	index := encodeSharded(q, 3)
	hdrLen, k := binary.Uvarint(index[2:])
	bytesEnc := EncodeBytesTo(nil, raw, 3)
	_, kb := binary.Uvarint(bytesEnc[2:])
	dst := make([]byte, n)
	return []dirReader{
		{"index", index, 2 + k + int(hdrLen), n, func(s []byte) error { _, err := DecodeN(s, n); return err }},
		{"bytes", bytesEnc, 2 + kb + byteTablePacked, n, func(s []byte) error { return DecodeBytesInto(dst, s) }},
	}
}

// TestShardedHostileDirectory: both readers turn every lie of the shared
// table away before anything the size of the output is allocated.
func TestShardedHostileDirectory(t *testing.T) {
	const n = 1 << 20 // 4 MB of decoded symbols
	for _, r := range dirReaders(n) {
		for name, lie := range shardtest.Lies(r.enc[r.dirOff:], r.total, false) {
			stream := append(r.enc[:r.dirOff:r.dirOff], lie...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := r.decode(stream)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", r.name, name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > n {
				t.Errorf("%s, %s: %d bytes allocated before the rejection", r.name, name, grew)
			}
		}
	}
}

func TestTableCapTightened(t *testing.T) {
	// A header claiming more table entries than its bytes can possibly
	// hold (2 bytes per entry) must be rejected. ntab = len(hdr) used to
	// squeak past the old cap (ntab > len(hdr)).
	hdr := []byte{
		10,   // nsamp = 10
		8,    // ntab = 8, but only 6 bytes of pairs follow
		2, 1, // one (delta, len) pair
		2, 1,
		2, 1,
	}
	stream := append([]byte{byte(len(hdr))}, hdr...)
	if _, err := Decode(stream); err == nil {
		t.Error("oversized table accepted")
	}
}

// TestDecodeParallelLegacy: DecodeN reads the legacy single-body layout
// when told its count.
func TestDecodeParallelLegacy(t *testing.T) {
	q := skewed(10_000, 9)
	enc := encode(q)
	dec, err := DecodeN(enc, len(q))
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if dec[i] != q[i] {
			t.Fatalf("symbol %d differs", i)
		}
	}
}

// TestShardDirectoryStrict: the index sub-format (0x00 0x01) and the byte
// sub-format (0xB7) end in one shard directory with one checked reader, so
// both reject the same lies — the shared table of internal/shardtest — and
// both still read what the encoders write.
func TestShardDirectoryStrict(t *testing.T) {
	for _, r := range dirReaders(20_000) {
		if err := r.decode(r.enc); err != nil {
			t.Errorf("%s: stream as written: %v", r.name, err)
		}
		lies := shardtest.Lies(r.enc[r.dirOff:], r.total, false)
		if len(lies) < 9 {
			t.Fatalf("%s: table has %d lies", r.name, len(lies))
		}
		for name, lie := range lies {
			if err := r.decode(append(r.enc[:r.dirOff:r.dirOff], lie...)); !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", r.name, name, err)
			}
		}
	}
}
