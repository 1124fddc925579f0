package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// shannonSort is the sorting entropy Shannon replaced and is checked
// against: it sorts q in place and sums the runs of equal symbols in
// ascending symbol order.
func shannonSort(q []int32) float64 {
	slices.Sort(q)
	inv := 1.0 / float64(len(q))
	e := 0.0
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j] == q[i] {
			j++
		}
		p := float64(j-i) * inv
		e -= p * math.Log2(p)
		i = j
	}
	return e
}

// checkShannon fails unless Shannon(q) equals both references bit for
// bit and leaves q as it was.
func checkShannon(t *testing.T, name string, q []int32) {
	t.Helper()
	orig := slices.Clone(q)
	got := Shannon(q)
	if !slices.Equal(q, orig) {
		t.Fatalf("%s: Shannon changed its input", name)
	}
	if want := FromHistogram(Histogram(q), len(q)); got != want {
		t.Fatalf("%s (n=%d): Shannon = %v, map histogram %v", name, len(q), got, want)
	}
	if want := shannonSort(orig); got != want {
		t.Fatalf("%s (n=%d): Shannon = %v, sorting reference %v", name, len(q), got, want)
	}
}

// TestShannonSortMatchesShannon: the histogram entropy returns the
// sorting reference's value bit for bit (the QoZ tuner compares these
// scores, and the charz tables print them) on narrow, tie-heavy and
// full-range alphabets, and leaves its input in its order.
func TestShannonSortMatchesShannon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		q := make([]int32, rng.Intn(5000))
		spread := []int32{1, 3, 40, 1 << 20, math.MaxInt32}[trial%5]
		for i := range q {
			q[i] = rng.Int31n(spread) - spread/2
		}
		checkShannon(t, fmt.Sprintf("trial %d spread %d", trial, spread), q)
	}
}

// TestShannonTunerShapes covers the arrays the QoZ tuner scores and every
// counting path: quantized residuals with ±1e6 clamps (a dense window of
// 2e6 symbols), a late outlier the seed sample misses (widen), a spread of
// MaxDenseRange or more and the NaN symbol MinInt32 (the sparse count),
// and the empty and one-symbol arrays. A dense count allocates nothing.
func TestShannonTunerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tuner := func(n int) []int32 {
		q := make([]int32, n)
		for i := range q {
			q[i] = int32(math.Round(rng.NormFloat64() * 3))
		}
		return q
	}
	clamped := tuner(4096)
	clamped[17], clamped[2000] = 1e6, -1e6
	late := tuner(4096)
	late[len(late)-1] = 5000
	wide := tuner(4096)
	wide[1], wide[4093] = -MaxDenseRange/2, MaxDenseRange/2
	nan := tuner(4096)
	nan[100], nan[3001] = math.MinInt32, math.MinInt32
	extremes := []int32{math.MinInt32, math.MaxInt32, 0, math.MinInt32}
	for name, q := range map[string][]int32{
		"clamped": clamped, "late outlier": late, "wide": wide, "nan": nan,
		"extremes": extremes, "empty": {}, "one symbol": {7}, "constant": {-3, -3, -3},
	} {
		checkShannon(t, name, q)
	}
	if got := Shannon([]int32{7}); got != 0 {
		t.Errorf("one-symbol entropy = %v, want 0", got)
	}
	q := tuner(4096)
	if a := testing.AllocsPerRun(10, func() { Shannon(q) }); a != 0 && !raceEnabled {
		t.Errorf("Shannon allocates %v times on a dense array", a)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool
