package entropy_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scdc/internal/bench"
	"scdc/internal/entropy"
)

// analyzeReference is the one-lane Analyze: a range scan, then one
// uint64 counter per symbol, or a map past MaxDenseRange. The lane
// histogram must reproduce its Dist exactly, Bits included bit for bit.
func analyzeReference(q []int32) *entropy.Dist {
	d := &entropy.Dist{N: len(q)}
	if len(q) == 0 {
		return d
	}
	d.Lo, d.Hi = q[0], q[0]
	for _, v := range q {
		d.Lo, d.Hi = min(d.Lo, v), max(d.Hi, v)
	}
	d.Dense = int64(d.Hi)-int64(d.Lo) < entropy.MaxDenseRange
	m := make(map[int32]uint64)
	for _, v := range q {
		m[v]++
	}
	syms := make([]int32, 0, len(m))
	for s := range m {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	n := float64(len(q))
	for _, s := range syms {
		c := m[s]
		d.Syms = append(d.Syms, entropy.SymCount{Sym: s, Count: c})
		d.Bits += float64(c) * -math.Log2(float64(c)/n)
	}
	return d
}

// TestAnalyzeMatchesReference: the lane histogram, over its sampled and
// widening window, gives the one-lane Dist on every lane tail, on extreme
// symbols, on symbols the sample misses, across the dense/sparse edge and
// on the real index arrays.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := map[string][]int32{
		"one symbol":  {7, 7, 7, 7, 7, 7, 7, 7, 7},
		"negative":    {-5, -1, -5, -3, -1, -5, -2},
		"int32 edges": {math.MinInt32, math.MaxInt32, 0, math.MinInt32, -1},
		"min only":    {math.MinInt32, math.MinInt32 + 1, math.MinInt32},
		"max only":    {math.MaxInt32, math.MaxInt32 - 2, math.MaxInt32},
	}
	// Every length up to two full groups of four plus a tail, and in
	// each a lone minimum and a lone maximum at every position, so each
	// lane and the tail loop hold an extreme once.
	for n := 0; n <= 9; n++ {
		q := make([]int32, n)
		for i := range q {
			q[i] = int32(rng.Intn(5)) - 2
		}
		cases[fmt.Sprintf("length %d", n)] = q
		for pos := 0; pos < n; pos++ {
			lo, hi := slices.Clone(q), slices.Clone(q)
			lo[pos], hi[pos] = -9, 9
			cases[fmt.Sprintf("length %d, min at %d", n, pos)] = lo
			cases[fmt.Sprintf("length %d, max at %d", n, pos)] = hi
		}
	}
	// Ranges one below and at MaxDenseRange: the last dense table and
	// the first sparse one, with the minimum in lane 1 and the maximum
	// in the tail.
	for name, width := range map[string]int32{"dense edge": entropy.MaxDenseRange - 1, "sparse edge": entropy.MaxDenseRange} {
		q := make([]int32, 4099)
		for i := range q {
			q[i] = 1000 + int32(rng.Intn(64))
		}
		q[1], q[len(q)-1] = -50, -50+width
		cases[name] = q
	}
	// Symbols the sample that sizes the first window misses (odd
	// positions of a long array): the window widens down, up, by several
	// doublings, to the int32 limits, and past MaxDenseRange to the map.
	late := func(base int32, outliers ...int32) []int32 {
		q := make([]int32, 20_000)
		for i := range q {
			q[i] = base + int32(rng.Intn(16))
		}
		for k, v := range outliers {
			q[1+7*k] = v
		}
		return q
	}
	cases["late low"] = late(0, -3000)
	cases["late high"] = late(0, 3000)
	cases["late doublings"] = late(0, 300, -600, 1200, -2400, 4800, -9600, 19200, 1<<20)
	cases["late to sparse"] = late(0, 5000, entropy.MaxDenseRange)
	cases["late int32 max"] = late(math.MaxInt32-20, math.MaxInt32, math.MaxInt32-5000)
	cases["late int32 min"] = late(math.MinInt32+4, math.MinInt32, math.MinInt32+5000)
	for _, c := range bench.IndexCells {
		q, qp, err := c.Arrays()
		if err != nil {
			t.Fatal(err)
		}
		cases[c.Name+" q"], cases[c.Name+" qp"] = q, qp
	}
	for name, q := range cases {
		got, want := entropy.Analyze(q), analyzeReference(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Analyze %+v, reference %+v", name, summary(got), summary(want))
		}
	}
	if d := entropy.Analyze(cases["dense edge"]); !d.Dense {
		t.Errorf("dense edge: range %d..%d analyzed as sparse", d.Lo, d.Hi)
	}
	if d := entropy.Analyze(cases["sparse edge"]); d.Dense {
		t.Errorf("sparse edge: range %d..%d analyzed as dense", d.Lo, d.Hi)
	}
}

// summary trims a Dist for a failure message.
func summary(d *entropy.Dist) entropy.Dist {
	s := *d
	if len(s.Syms) > 8 {
		s.Syms = s.Syms[:8]
	}
	return s
}
