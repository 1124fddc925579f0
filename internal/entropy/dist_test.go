package entropy

import (
	"errors"
	"math/rand"
	"testing"

	"scdc/internal/verdict"
)

func TestAnalyzeMatchesShannon(t *testing.T) {
	// Dist's ascending-order accumulation must agree exactly with the
	// Shannon helper over the same histogram (both sum in symbol order).
	rng := rand.New(rand.NewSource(3))
	q := make([]int32, 40_000)
	for i := range q {
		q[i] = int32(rng.Intn(17)) - 8
	}
	d := Analyze(q)
	got, want := d.EntropyBits(), Shannon(q)
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("Analyze entropy %v, Shannon %v", got, want)
	}
	if d.N != len(q) {
		t.Fatalf("N=%d, want %d", d.N, len(q))
	}
	if d.Lo != -8 || d.Hi != 8 || !d.Dense {
		t.Fatalf("range (%d,%d,dense=%v), want (-8,8,true)", d.Lo, d.Hi, d.Dense)
	}
	if d.Distinct() != 17 {
		t.Fatalf("distinct %d, want 17", d.Distinct())
	}
}

func TestAnalyzeSparseMatchesDense(t *testing.T) {
	// The map (sparse) path must produce the identical Dist as the dense
	// path for the same multiset of symbols; force it with a wide outlier.
	base := make([]int32, 10_000)
	rng := rand.New(rand.NewSource(9))
	for i := range base {
		base[i] = int32(rng.Intn(300))
	}
	wide := append(append([]int32{}, base...), 1<<28) // blows MaxDenseRange
	narrow := append(append([]int32{}, base...), 301)

	dw, dn := Analyze(wide), Analyze(narrow)
	if dw.Dense || !dn.Dense {
		t.Fatalf("dense flags: wide=%v narrow=%v", dw.Dense, dn.Dense)
	}
	// Same counts for the shared prefix symbols.
	for i, sc := range dn.Syms[:dn.Distinct()-1] {
		if dw.Syms[i] != sc {
			t.Fatalf("symbol %d: sparse %+v, dense %+v", i, dw.Syms[i], sc)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	d := Analyze(nil)
	if d.N != 0 || d.Distinct() != 0 || d.EntropyBits() != 0 {
		t.Fatalf("empty Dist %+v", d)
	}
	if d.HuffmanBytes() != 2 {
		t.Fatalf("empty HuffmanBytes %d, want 2", d.HuffmanBytes())
	}
	if d.RiceBytes() != 8 {
		t.Fatalf("empty RiceBytes %d, want 8", d.RiceBytes())
	}
}

func TestCenter(t *testing.T) {
	q := []int32{5, 5, 5, 2, 2, 9}
	if c := Analyze(q).Center(); c != 5 {
		t.Fatalf("center %d, want 5", c)
	}
	// Ties break to the smallest symbol.
	tie := []int32{3, 3, 7, 7}
	if c := Analyze(tie).Center(); c != 3 {
		t.Fatalf("tie center %d, want 3", c)
	}
}

func TestRiceBeatsHuffmanOnNearConstant(t *testing.T) {
	// A nearly-constant stream is where the run/escape sub-mode shines;
	// the estimate's run-mode pricing must undercut Huffman here, or
	// CoderAuto could never pick rice on the streams rice wins hardest.
	q := make([]int32, 100_000)
	for i := range q {
		q[i] = 1000
		if i%997 == 0 {
			q[i] = 1001
		}
	}
	d := Analyze(q)
	// A 2-symbol Huffman code cannot beat 1 bit/symbol, so the real
	// Huffman body is N/8 bytes; the rice estimate must come in far under.
	if r, floor := d.RiceBytes(), len(q)/8; r >= floor {
		t.Fatalf("RiceBytes %d >= %d (huffman 1-bit/symbol floor)", r, floor)
	}
	if d.AutoCoder() != CoderRice {
		t.Fatal("auto did not pick rice on a near-constant stream")
	}
	if d.EstimateBytes(CoderAuto) != d.RiceBytes() {
		t.Fatal("auto estimate did not follow the rice choice")
	}
}

func TestHuffmanBeatsRiceOnWide(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := make([]int32, 50_000)
	for i := range q {
		q[i] = int32(rng.Intn(64)) // flat-ish: unary quotients are costly
	}
	d := Analyze(q)
	if d.EstimateBytes(CoderAuto) != minInt(d.RiceBytes(), d.HuffmanBytes()) {
		t.Fatal("auto estimate is not the min of the two coders")
	}
	if d.EstimateBytes(CoderHuffman) != d.HuffmanBytes() {
		t.Fatal("huffman estimate mismatch")
	}
	if d.EstimateBytes(CoderRice) != d.RiceBytes() {
		t.Fatal("rice estimate mismatch")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestZigZag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 1 << 32: 1 << 33}
	for d, want := range cases {
		if got := ZigZag(d); got != want {
			t.Fatalf("ZigZag(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestParseCoder(t *testing.T) {
	for name, want := range map[string]Coder{"huffman": CoderHuffman, "auto": CoderAuto, "rice": CoderRice} {
		c, err := ParseCoder(name)
		if err != nil || c != want {
			t.Fatalf("ParseCoder(%q) = %v, %v", name, c, err)
		}
		if c.String() != name || !c.Valid() {
			t.Fatalf("%v: String=%q Valid=%v", c, c.String(), c.Valid())
		}
	}
	if _, err := ParseCoder("arith"); !errors.Is(err, verdict.ErrBadOptions) {
		t.Fatalf("ParseCoder(arith) err = %v, want ErrBadOptions", err)
	}
	if Coder(200).Valid() {
		t.Fatal("Coder(200) reported valid")
	}
}
