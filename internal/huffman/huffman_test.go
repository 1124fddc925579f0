package huffman

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"scdc/internal/entropy"
)

func roundTrip(t *testing.T, q []int32) {
	t.Helper()
	enc := Encode(q)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(q) {
		t.Fatalf("length %d != %d", len(dec), len(q))
	}
	for i := range q {
		if dec[i] != q[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, dec[i], q[i])
		}
	}
}

func TestEmpty(t *testing.T)        { roundTrip(t, []int32{}) }
func TestSingleSymbol(t *testing.T) { roundTrip(t, []int32{7, 7, 7, 7, 7}) }
func TestOneSample(t *testing.T)    { roundTrip(t, []int32{-42}) }

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int32{1, 2, 1, 1, 2, 1, 1, 1})
}

func TestNegativeSymbols(t *testing.T) {
	roundTrip(t, []int32{-1, -2, 3, -1 << 31, 1<<31 - 1, 0, -1})
}

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := make([]int32, 50000)
	for i := range q {
		// Geometric-ish distribution mimicking quantization indices.
		v := int32(0)
		for rng.Float64() < 0.5 && v < 30 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		q[i] = v + 1<<15
	}
	enc := Encode(q)
	if len(enc) >= len(q)*4 {
		t.Fatalf("no compression: %d bytes for %d symbols", len(enc), len(q))
	}
	roundTrip(t, q)
}

func TestUniformWide(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := make([]int32, 10000)
	for i := range q {
		q[i] = rng.Int31n(1 << 20)
	}
	roundTrip(t, q)
}

func TestCompressedSizeTracksEntropy(t *testing.T) {
	// Lower-entropy stream must encode smaller.
	n := 20000
	lo := make([]int32, n)
	hi := make([]int32, n)
	rng := rand.New(rand.NewSource(3))
	for i := range lo {
		lo[i] = int32(rng.Intn(4))
		hi[i] = int32(rng.Intn(1024))
	}
	if el, eh := len(Encode(lo)), len(Encode(hi)); el >= eh {
		t.Fatalf("low entropy %d >= high entropy %d", el, eh)
	}
}

func TestCorrupt(t *testing.T) {
	enc := Encode([]int32{1, 2, 3, 4, 5, 1, 2, 3})
	if _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decode(enc[:1]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0xff // header length corruption
	if _, err := Decode(bad); err == nil {
		t.Error("corrupt header length accepted")
	}
}

// TestQuickRoundTrip property: arbitrary int32 streams round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(q []int32) bool {
		enc := Encode(q)
		dec, err := Decode(enc)
		if err != nil || len(dec) != len(q) {
			return false
		}
		for i := range q {
			if dec[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSlowPathLongCodes forces every code past fastBits: a uniform stream
// over >2^13 distinct symbols yields only 13+-bit codes, so the decoder
// resolves every symbol through the peek-based slow path.
func TestSlowPathLongCodes(t *testing.T) {
	q := make([]int32, 20000)
	for i := range q {
		q[i] = int32(i)
	}
	roundTrip(t, q)
}

// TestCodesPastPackedWord: a code of packedMaxLen bits still packs into
// one word with its length; a longer one moves the whole table to the
// maps, and either way the stream decodes back.
func TestCodesPastPackedWord(t *testing.T) {
	for _, maxLen := range []int{packedMaxLen, packedMaxLen + 1, 63} {
		lengths := append(ascending(maxLen), maxLen)
		table := make([]symLen, len(lengths))
		for i, l := range lengths {
			table[i] = symLen{int32(i), l}
		}
		if cs := buildCodes(table, 0, int32(maxLen), true); (cs.packed != nil) != (maxLen <= packedMaxLen) {
			t.Fatalf("longest code %d bits: packed = %v", maxLen, cs.packed != nil)
		}
		q := []int32{0, int32(maxLen), 3, int32(maxLen - 1), 1, int32(maxLen), 0}
		dec, err := Decode(codedStream(lengths, q))
		if err != nil || !slices.Equal(dec, q) {
			t.Fatalf("longest code %d bits: decoded %v, %v; want %v", maxLen, dec, err, q)
		}
	}
}

// TestFastTableReuseCleared: the pooled fast table is cleared only over
// its touched prefix on reuse. Decode a stream whose table fills most of
// the fast table, then a crafted stream whose 1-bit code leaves the upper
// half untouched and whose body starts with a 1 bit: the lookup must miss
// (slot zero), fall to the slow path, and report corruption — a stale
// entry from the previous decode would instead return a bogus symbol.
func TestFastTableReuseCleared(t *testing.T) {
	wide := make([]int32, 1<<13)
	for i := range wide {
		wide[i] = int32(i)
	}
	roundTrip(t, wide) // poison the pooled table across its full span

	hdr := []byte{1, 1}      // nsamp=1, table size 1
	hdr = append(hdr, 10, 1) // symbol delta zigzag(5)=10, code length 1
	var data []byte
	data = append(data, byte(len(hdr)))
	data = append(data, hdr...)
	data = append(data, 0x80) // body: first bit 1, not a valid code
	if _, err := Decode(data); err == nil {
		t.Fatal("stream with unassigned 1-prefix decoded without error")
	}

	// And the matching valid stream (first bit 0) still decodes.
	data[len(data)-1] = 0x00
	dec, err := Decode(data)
	if err != nil || len(dec) != 1 || dec[0] != 5 {
		t.Fatalf("valid crafted stream: dec=%v err=%v", dec, err)
	}
}

// codeLengthsRef is the canonical table as it was computed before the
// counting sort: depth-first leaf order, insertion-sorted by (length,
// symbol). codeLengths must reproduce it entry for entry — the table is
// serialized, so its order is part of every stream.
func codeLengthsRef(d *entropy.Dist) []symLen {
	if len(d.Syms) == 1 {
		return []symLen{{d.Syms[0].Sym, 1}}
	}
	arena := new(treeScratch).buildTree(d.Syms)
	var out []symLen
	type frame struct{ n, depth int }
	stack := []frame{{len(arena) - 1, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := arena[f.n]
		if nd.left < 0 {
			out = append(out, symLen{nd.sym, f.depth})
			continue
		}
		stack = append(stack, frame{int(nd.left), f.depth + 1}, frame{int(nd.right), f.depth + 1})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].len < out[j-1].len ||
			(out[j].len == out[j-1].len && out[j].sym < out[j-1].sym)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// randomDist draws n distinct ascending symbols with counts from a mix
// of flat, geometric and heavy-tailed shapes (ties and deep trees both
// occur).
func randomDist(rng *rand.Rand, n int) *entropy.Dist {
	d := &entropy.Dist{Syms: make([]entropy.SymCount, n)}
	sym := int32(rng.Intn(1000)) - 500
	shape := rng.Intn(3)
	for i := range d.Syms {
		sym += 1 + int32(rng.Intn(3))
		var c uint64
		switch shape {
		case 0:
			c = 1 + uint64(rng.Intn(4))
		case 1:
			c = 1 + uint64(rng.ExpFloat64()*50)
		default:
			c = 1 + uint64(1)<<uint(rng.Intn(40))
		}
		d.Syms[i] = entropy.SymCount{Sym: sym, Count: c}
		d.N += int(c)
	}
	d.Lo, d.Hi = d.Syms[0].Sym, d.Syms[n-1].Sym
	return d
}

func TestCodeLengthsMatchReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		d := randomDist(rng, 1+rng.Intn(600))
		got, _ := codeLengths(d)
		want := codeLengthsRef(d)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d entry %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCodeLengthsWideAlphabetScales: a 50k-symbol table must build in
// roughly linear time. The insertion sort it replaces took ~25x longer
// for every 5x more symbols (64 ms at 10k distinct symbols, seconds
// here); n log n heap work takes ~6x.
func TestCodeLengthsWideAlphabetScales(t *testing.T) {
	build := func(n int) time.Duration {
		rng := rand.New(rand.NewSource(int64(n)))
		d := randomDist(rng, n)
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			table, _ := codeLengths(d)
			if el := time.Since(t0); el < best {
				best = el
			}
			if len(table) != n {
				t.Fatalf("%d entries for %d symbols", len(table), n)
			}
		}
		return best
	}
	small, wide := build(10000), build(50000)
	if wide > 15*small {
		t.Fatalf("50k-symbol table took %v, 10k took %v: more than 15x for 5x the symbols", wide, small)
	}
}

// TestEncodedLen: the size a trial is priced at is the stream Encode
// writes, byte for byte, on empty, one- and two-symbol arrays, dense and
// sparse alphabets (the packed and the map code set) and random draws.
// Codes past packedMaxLen need ~Fibonacci(58) symbols, more than an array
// holds, so for Fibonacci counts the sizing is checked against the header
// appendTableHeader writes and the body the lengths code.
func TestEncodedLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sparse := make([]int32, 3000)
	for i := range sparse {
		sparse[i] = int32(rng.Intn(40)) * (entropy.MaxDenseRange / 8)
	}
	cases := map[string][]int32{
		"empty": {}, "one symbol": {-9, -9, -9}, "one sample": {math.MaxInt32},
		"two symbols": {4, 5, 5, 5, 4, 5}, "sparse": sparse,
		"extremes": {math.MinInt32, math.MaxInt32, 0, 0, 0},
		"skewed":   geometricStream(50_000, 0.3, 1),
		"wide":     geometricStream(50_000, 0.995, 2),
	}
	for trial := 0; trial < 200; trial++ {
		q := make([]int32, rng.Intn(3000))
		spread := 1 + rng.Intn(1<<uint(rng.Intn(24)))
		for i := range q {
			q[i] = int32(rng.Intn(spread) - spread/2)
		}
		cases[fmt.Sprint("random ", trial)] = q
	}
	for name, q := range cases {
		if got, want := EncodedLen(q), len(Encode(q)); got != want {
			t.Errorf("%s (n=%d): EncodedLen = %d, Encode writes %d", name, len(q), got, want)
		}
	}
	if d := entropy.Analyze(sparse); d.Dense {
		t.Fatal("the sparse case has a dense alphabet")
	}

	d := &entropy.Dist{}
	for i, a, b := 0, uint64(1), uint64(1); i < 64; i, a, b = i+1, b, a+b {
		d.Syms = append(d.Syms, entropy.SymCount{Sym: int32(5*i - 100), Count: a})
		d.N += int(a)
	}
	table, bodyBits := codeLengths(d)
	if longest := table[len(table)-1].len; longest <= packedMaxLen {
		t.Fatalf("fibonacci counts: longest code %d bits, want more than %d", longest, packedMaxLen)
	}
	hdr := appendTableHeader(nil, d.N, table)
	want := len(binary.AppendUvarint(nil, uint64(len(hdr)))) + len(hdr) + int((bodyBits+7)/8)
	if got := encodedLen(d); got != want {
		t.Errorf("fibonacci counts: encodedLen = %d, header and body take %d", got, want)
	}
}
