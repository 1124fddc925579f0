// Package gcfix is the gate's negative fixture: a self-contained module
// (so the parent build never compiles it) holding one deliberate
// violation of each directive next to one function that honors it. The
// gcgate test compiles this module for real and asserts the exact
// violation set, which proves the gate still fails when an inline tag
// stops holding or a nobounds region regains a check — the acceptance
// demonstration for the gate step of `make lint`.
package gcfix

// Small honors scdc:inline: trivially under the inline budget.
//
//scdc:inline
func Small(x float64) float64 {
	return x*x + 1
}

// Recursive violates scdc:inline at the declaration: the compiler
// refuses recursive functions outright.
//
//scdc:inline
func Recursive(x float64, n int) float64 {
	if n <= 0 {
		return x
	}
	return Recursive(x*1.0000001, n-1)
}

// Pinned violates scdc:inline at the declaration and at its call site:
// go:noinline is the deterministic stand-in for "a refactor pushed the
// function over the inline budget".
//
//go:noinline
//scdc:inline
func Pinned(x float64) float64 {
	return x + 1
}

// Use gives every inline target a direct call site.
func Use(xs []float64) float64 {
	s := 0.0
	for i := range xs {
		s += Small(xs[i]) + Recursive(xs[i], 3) + Pinned(xs[i])
	}
	return s
}

// UseDeferred calls an inline target from a defer, which never inlines.
func UseDeferred() {
	defer Small(2)
}

// Escapes violates scdc:noalloc: the pointer return forces the local to
// the heap.
//
//scdc:noalloc
func Escapes(n int) *[]float64 {
	buf := make([]float64, n)
	return &buf
}

// Sums honors scdc:noalloc.
//
//scdc:noalloc
func Sums(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// Gather violates scdc:nobounds: the indirect index defeats the prove
// pass.
//
//scdc:nobounds
func Gather(xs []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

// Scale honors scdc:nobounds: range indexing is proven in bounds.
//
//scdc:nobounds
func Scale(xs []float64) {
	for i := range xs {
		xs[i] *= 2
	}
}
