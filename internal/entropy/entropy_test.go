package entropy

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Histogram counts symbol occurrences in q. The map form tolerates the
// full int32 range without allocating dense tables.
func Histogram(q []int32) map[int32]int {
	h := make(map[int32]int)
	for _, v := range q {
		h[v]++
	}
	return h
}

// FromHistogram computes entropy from precomputed counts with total n: the
// map-based reference Shannon is checked against.
func FromHistogram(h map[int32]int, n int) float64 {
	if n == 0 {
		return 0
	}
	// Accumulate in sorted symbol order: float addition is not
	// associative, and map iteration order would otherwise make the
	// low-order bits of the result vary from run to run.
	syms := make([]int32, 0, len(h))
	for s := range h {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	inv := 1.0 / float64(n)
	e := 0.0
	for _, s := range syms {
		p := float64(h[s]) * inv
		e -= p * math.Log2(p)
	}
	return e
}

func TestShannonKnownValues(t *testing.T) {
	if e := Shannon(nil); e != 0 {
		t.Fatalf("empty entropy = %g", e)
	}
	if e := Shannon([]int32{5, 5, 5, 5}); e != 0 {
		t.Fatalf("constant entropy = %g", e)
	}
	if e := Shannon([]int32{0, 1, 0, 1}); !almost(e, 1) {
		t.Fatalf("binary entropy = %g", e)
	}
	if e := Shannon([]int32{0, 1, 2, 3}); !almost(e, 2) {
		t.Fatalf("4-ary entropy = %g", e)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int32{1, 1, 2, -3})
	if h[1] != 2 || h[2] != 1 || h[-3] != 1 || len(h) != 3 {
		t.Fatalf("histogram = %v", h)
	}
}

// TestQuickBounds property: 0 <= H(Q) <= log2(#distinct).
func TestQuickBounds(t *testing.T) {
	f := func(q []int32) bool {
		e := Shannon(q)
		if e < 0 {
			return false
		}
		h := Histogram(q)
		if len(h) == 0 {
			return e == 0
		}
		return e <= math.Log2(float64(len(h)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPermutationInvariant property: entropy ignores order.
func TestQuickPermutationInvariant(t *testing.T) {
	f := func(q []int32) bool {
		rev := make([]int32, len(q))
		for i, v := range q {
			rev[len(q)-1-i] = v
		}
		return almost(Shannon(q), Shannon(rev))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestShannonSortMatchesShannon: the sorting form returns the map
// histogram's value bit for bit (codec decisions compare these scores, and
// the charz tables print them), on narrow, tie-heavy and full-range
// alphabets; Shannon leaves its input in its order; ShannonSort does not
// allocate.
func TestShannonSortMatchesShannon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		q := make([]int32, rng.Intn(5000))
		spread := []int32{1, 3, 40, 1 << 20, math.MaxInt32}[trial%5]
		for i := range q {
			q[i] = rng.Int31n(spread) - spread/2
		}
		want := FromHistogram(Histogram(q), len(q))
		orig := append([]int32(nil), q...)
		if got := Shannon(q); got != want {
			t.Fatalf("trial %d (n=%d spread=%d): Shannon = %v, histogram %v", trial, len(q), spread, got, want)
		}
		for i := range q {
			if q[i] != orig[i] {
				t.Fatalf("trial %d: Shannon reordered its input at %d", trial, i)
			}
		}
		if got := ShannonSort(q); got != want {
			t.Fatalf("trial %d (n=%d spread=%d): ShannonSort = %v, histogram %v", trial, len(q), spread, got, want)
		}
	}
	q := make([]int32, 4096)
	if a := testing.AllocsPerRun(10, func() { ShannonSort(q) }); a != 0 {
		t.Errorf("ShannonSort allocates %v times", a)
	}
}
