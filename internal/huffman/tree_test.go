package huffman

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scdc/internal/entropy"
)

// nodeHeap is a binary min-heap of arena indexes ordered by (count, sym):
// the typed heap buildTree used before the two-queue merge. Live nodes
// cover disjoint symbol sets and carry their smallest symbol, so the
// order is total and the pop sequence — hence the tree — does not depend
// on the heap's internal layout.
type nodeHeap struct {
	arena []node
	idx   []int32
}

func (h *nodeHeap) less(i, j int) bool { return h.arena[h.idx[i]].less(&h.arena[h.idx[j]]) }

func (h *nodeHeap) push(v int32) {
	h.idx = append(h.idx, v)
	for j := len(h.idx) - 1; j > 0; {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			break
		}
		h.idx[j], h.idx[parent] = h.idx[parent], h.idx[j]
		j = parent
	}
}

func (h *nodeHeap) pop() int32 {
	n := len(h.idx) - 1
	h.idx[0], h.idx[n] = h.idx[n], h.idx[0]
	h.down(0, n)
	v := h.idx[n]
	h.idx = h.idx[:n]
	return v
}

// down sifts element i into place within the first n elements.
func (h *nodeHeap) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.idx[i], h.idx[c] = h.idx[c], h.idx[i]
		i = c
	}
}

// buildTreeHeap is buildTree through the typed heap, the build every
// stream before the two-queue merge was coded with.
func buildTreeHeap(syms []entropy.SymCount) []node {
	h := nodeHeap{arena: make([]node, 0, 2*len(syms)), idx: make([]int32, len(syms))}
	for i, s := range syms {
		h.arena = append(h.arena, node{count: s.Count, sym: s.Sym, left: -1, right: -1})
		h.idx[i] = int32(i)
	}
	for i := len(syms)/2 - 1; i >= 0; i-- {
		h.down(i, len(syms))
	}
	for len(h.idx) > 1 {
		a := h.pop()
		b := h.pop()
		h.arena = append(h.arena, node{
			count: h.arena[a].count + h.arena[b].count,
			sym:   min(h.arena[a].sym, h.arena[b].sym),
			left:  a, right: b,
		})
		h.push(int32(len(h.arena) - 1))
	}
	return h.arena
}

// boxedHeap is the container/heap form of nodeHeap, which the typed heap
// replaced; the streams of every earlier release were built with it.
type boxedHeap struct{ nodeHeap }

func (h *boxedHeap) Len() int           { return len(h.idx) }
func (h *boxedHeap) Less(i, j int) bool { return h.less(i, j) }
func (h *boxedHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *boxedHeap) Push(x any)         { h.idx = append(h.idx, x.(int32)) }
func (h *boxedHeap) Pop() any {
	n := len(h.idx) - 1
	v := h.idx[n]
	h.idx = h.idx[:n]
	return v
}

func buildTreeBoxed(syms []entropy.SymCount) []node {
	h := &boxedHeap{}
	for i, s := range syms {
		h.arena = append(h.arena, node{count: s.Count, sym: s.Sym, left: -1, right: -1})
		h.idx = append(h.idx, int32(i))
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int32)
		b := heap.Pop(h).(int32)
		h.arena = append(h.arena, node{
			count: h.arena[a].count + h.arena[b].count,
			sym:   min(h.arena[a].sym, h.arena[b].sym),
			left:  a, right: b,
		})
		heap.Push(h, int32(len(h.arena)-1))
	}
	return h.arena
}

// TestBuildTreeMatchesContainerHeap: the two-queue merge builds the tree
// container/heap did — the (count, sym) order is total, so the tree
// cannot depend on how the nodes are queued — on alphabets dominated by
// ties.
func TestBuildTreeMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		maxCount := []int{1, 2, 5, 1000, 1 << 30}[trial%5]
		syms := make([]entropy.SymCount, n)
		sym := int32(rng.Intn(100) - 50)
		for i := range syms {
			syms[i] = entropy.SymCount{Sym: sym, Count: uint64(1 + rng.Intn(maxCount))}
			sym += int32(1 + rng.Intn(3))
		}
		if got, want := new(treeScratch).buildTree(syms), buildTreeBoxed(syms); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d symbols, counts <= %d): tree differs from the container/heap build", trial, n, maxCount)
		}
	}
}

// TestCodeLengthsMatchHeap: the two-queue merge builds the typed heap's
// tree node for node, and so the same code lengths and body size, on the
// shapes that stress it — equal counts everywhere, Fibonacci counts (the
// deepest tree for their total), one and two symbols, a 10^4-symbol
// MGARD-like table, counts of eight significant bytes, and random draws;
// the body size it reports is what the lengths code.
func TestCodeLengthsMatchHeap(t *testing.T) {
	dist := func(counts ...uint64) *entropy.Dist {
		d := &entropy.Dist{}
		for i, c := range counts {
			d.Syms = append(d.Syms, entropy.SymCount{Sym: int32(3*i - 40), Count: c})
			d.N += int(c)
		}
		return d
	}
	equal := make([]uint64, 1000)
	for i := range equal {
		equal[i] = 5
	}
	fib := []uint64{1, 1}
	for len(fib) < 60 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	// MGARD at a tight bound: a two-sided geometric bulk of 10^4 symbols
	// around the centre, a long tail of ones and a spike of the
	// unpredictable marker.
	rng := rand.New(rand.NewSource(20))
	mgard := make([]uint64, 10_000)
	for i := range mgard {
		dist := float64(i - len(mgard)/2)
		mgard[i] = 1 + uint64(4000*rng.Float64()*math.Pow(0.999, math.Abs(dist)))
	}
	mgard[0] = 30_000
	cases := map[string]*entropy.Dist{
		"equal counts":   dist(equal...),
		"fibonacci":      dist(fib...),
		"one symbol":     dist(7),
		"two symbols":    dist(3, 9),
		"mgard-like":     dist(mgard...),
		"wide counts":    dist(1<<61+5, 1<<61, 1<<61+5, 1<<62, 1<<61+1, 1<<61+256),
		"wide and equal": dist(1<<61, 1<<61, 1<<61, 1<<61),
	}
	for trial := 0; trial < 100; trial++ {
		cases[fmt.Sprintf("random %d", trial)] = randomDist(rng, 1+rng.Intn(2000))
	}
	for name, d := range cases {
		got, gotBits := codeLengths(d)
		want, wantBits := []symLen{{d.Syms[0].Sym, 1}}, d.Syms[0].Count
		if len(d.Syms) > 1 {
			tree := buildTreeHeap(d.Syms)
			if !reflect.DeepEqual(new(treeScratch).buildTree(d.Syms), tree) {
				t.Fatalf("%s: tree differs from the heap build", name)
			}
			want, wantBits = canonical(tree, d.Syms)
		}
		if !reflect.DeepEqual(got, want) || gotBits != wantBits {
			t.Fatalf("%s: %d bits, want %d; lengths differ: %v", name, gotBits, wantBits, !reflect.DeepEqual(got, want))
		}
		lenOf := make(map[int32]uint64, len(got))
		for _, sl := range got {
			lenOf[sl.sym] = uint64(sl.len)
		}
		var bits uint64
		for _, s := range d.Syms {
			bits += s.Count * lenOf[s.Sym]
		}
		if gotBits != bits {
			t.Fatalf("%s: body of %d bits reported, the lengths code %d", name, gotBits, bits)
		}
	}
	if table, _ := codeLengths(cases["fibonacci"]); table[len(table)-1].len != len(fib)-1 {
		t.Fatalf("fibonacci counts: deepest code %d bits, want %d", table[len(table)-1].len, len(fib)-1)
	}
}
