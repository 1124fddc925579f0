package huffman

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"

	"scdc/internal/entropy"
)

// boxedHeap is the container/heap form of nodeHeap that buildTree used
// before the typed heap; the streams of every earlier release were built
// with it.
type boxedHeap struct{ nodeHeap }

func (h *boxedHeap) Len() int           { return len(h.idx) }
func (h *boxedHeap) Less(i, j int) bool { return h.less(i, j) }
func (h *boxedHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *boxedHeap) Push(x any)         { h.idx = append(h.idx, x.(int)) }
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
		h.idx = append(h.idx, i)
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.arena = append(h.arena, node{
			count: h.arena[a].count + h.arena[b].count,
			sym:   min(h.arena[a].sym, h.arena[b].sym),
			left:  a, right: b,
		})
		heap.Push(h, len(h.arena)-1)
	}
	return h.arena
}

// TestBuildTreeMatchesContainerHeap: the typed heap merges nodes in the
// order container/heap did — the (count, sym) order is total, so the tree
// cannot depend on the heap's layout — on alphabets dominated by ties.
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
		if got, want := buildTree(syms), buildTreeBoxed(syms); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d symbols, counts <= %d): tree differs from the container/heap build", trial, n, maxCount)
		}
	}
}
