package bitstream

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"scdc/internal/verdict"
)

func TestSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type item struct {
		v uint64
		n uint
	}
	items := make([]item, 2000)
	w := NewWriter(0)
	for i := range items {
		n := uint(rng.Intn(64) + 1)
		v := rng.Uint64() & ((1 << n) - 1)
		if n == 64 {
			v = rng.Uint64()
		}
		items[i] = item{v, n}
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, it := range items {
		got, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %x want %x (n=%d)", i, got, it.v, it.n)
		}
	}
}

func TestLen(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x3, 2)
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
	w.WriteBits(0, 70)
	if w.Len() != 72 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestShortStream(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); !errors.Is(err, verdict.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	r2 := NewReader([]byte{0xff})
	if _, err := r2.ReadBits(9); !errors.Is(err, verdict.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xabcd, 16)
	w.Reset()
	w.WriteBits(0x12, 8)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x12 {
		t.Fatalf("bytes = %x", b)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.Remaining() != 24 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 19 || r.BitsRead() != 5 {
		t.Fatalf("remaining=%d read=%d", r.Remaining(), r.BitsRead())
	}
}

// TestQuickRoundTrip property: any sequence of (value, width) writes reads
// back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewWriter(0)
		want := make([]uint64, n)
		ns := make([]uint, n)
		for i := 0; i < n; i++ {
			ns[i] = uint(widths[i]%64) + 1
			want[i] = vals[i]
			if ns[i] < 64 {
				want[i] &= (1 << ns[i]) - 1
			}
			w.WriteBits(want[i], ns[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(ns[i])
			if err != nil || got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekAndSkip(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b1011001110001111, 16)
	r := NewReader(w.Bytes())
	if got := r.PeekBits(4); got != 0b1011 {
		t.Fatalf("peek4 = %b", got)
	}
	// Peek does not consume.
	if got := r.PeekBits(8); got != 0b10110011 {
		t.Fatalf("peek8 = %b", got)
	}
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	if got := r.PeekBits(4); got != 0b0011 {
		t.Fatalf("after skip peek4 = %b", got)
	}
	if got, _ := r.ReadBits(12); got != 0b001110001111 {
		t.Fatalf("read12 = %b", got)
	}
	// Peek past end reads zeros; skip past end errors.
	if got := r.PeekBits(8); got != 0 {
		t.Fatalf("past-end peek = %b", got)
	}
	if err := r.Skip(1); !errors.Is(err, verdict.ErrCorrupt) {
		t.Fatalf("past-end skip err = %v", err)
	}
}

func TestPeekStraddlesBytes(t *testing.T) {
	r := NewReader([]byte{0xAB, 0xCD, 0xEF})
	if err := r.Skip(5); err != nil {
		t.Fatal(err)
	}
	if got := r.PeekBits(13); got != (0xABCDE>>2)&0x1FFF {
		t.Fatalf("straddle peek = %x", got)
	}
}
