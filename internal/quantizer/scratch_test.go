package quantizer

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// poolsDropPuts reports whether sync.Pool loses objects with no
// collection in between, as it does at random under the race detector.
func poolsDropPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
	}
	for i := 0; i < 64; i++ {
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestGetFloatFieldBound: a pooled buffer becomes a field of n points only
// when its capacity lies in [n, n+n/8], clipped to capacity n; one that
// does not fit stays in the pool untouched, and the field is allocated.
func TestGetFloatFieldBound(t *testing.T) {
	// One P and no collection: what a Put leaves is what the next Get sees.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolsDropPuts() {
		t.Skip("sync.Pool drops Puts at random in this build (race detector)")
	}
	runtime.GC()
	runtime.GC()
	const n = 800
	for _, tc := range []struct {
		cap    int
		pooled bool
	}{
		{n - 1, false}, {n, true}, {n + n/8, true}, {n + n/8 + 1, false}, {4 * n, false},
	} {
		offered := make([]float64, tc.cap)
		PutFloatBuf(offered)
		buf, pooled := GetFloatField(n)
		if pooled != tc.pooled || len(buf) != n || cap(buf) != n {
			t.Fatalf("cap %d: pooled=%v len %d cap %d, want pooled=%v len and cap %d",
				tc.cap, pooled, len(buf), cap(buf), tc.pooled, n)
		}
		if took := &buf[0] == &offered[0]; took != tc.pooled {
			t.Fatalf("cap %d: field is the offered buffer: %v", tc.cap, took)
		}
		if !tc.pooled {
			// The misfit went back: the next Get of its own size takes it.
			if again, ok := GetFloatField(tc.cap); !ok || &again[0] != &offered[0] {
				t.Fatalf("cap %d: the buffer that did not fit left the pool", tc.cap)
			}
		}
	}
}
