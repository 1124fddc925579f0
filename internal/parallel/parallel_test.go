package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 1000
		var hits [1000]int32
		if err := ForEach(n, workers, func(_, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZero(t *testing.T) {
	called := false
	_ = ForEach(0, 4, func(int, int) error { called = true; return nil })
	if called {
		t.Fatal("fn called for n=0")
	}
}

// TestForEachFirstError: when several indexes fail, the error returned is
// the lowest failing index's at every worker count, every index below it
// has run, and the sequential path stops there.
func TestForEachFirstError(t *testing.T) {
	const n, lowest = 200, 37
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 50; round++ {
			var ran [n]atomic.Bool
			err := ForEach(n, workers, func(_, i int) error {
				ran[i].Store(true)
				if i == lowest || i == lowest+1 || i%50 == 49 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("index %d", lowest) {
				t.Fatalf("workers=%d: got %v, want index %d's error", workers, err, lowest)
			}
			for i := 0; i <= lowest; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
				}
			}
			if workers == 1 && ran[lowest+1].Load() {
				t.Fatal("sequential path ran past its first error")
			}
		}
	}
}

func TestMapOrder(t *testing.T) {
	out := Map(100, 4, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSerial(t *testing.T) {
	out := Map(5, 1, func(i int) string { return string(rune('a' + i)) })
	if out[4] != "e" {
		t.Fatalf("out = %v", out)
	}
}
