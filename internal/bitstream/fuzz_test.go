package bitstream

import (
	"errors"
	"testing"

	"scdc/internal/verdict"
)

// FuzzBitReader drives a Reader over arbitrary bytes with an arbitrary
// op script (read/peek/skip of arbitrary widths) and checks the
// bookkeeping invariants: BitsRead+Remaining is conserved, reads past the
// end fail with verdict.ErrCorrupt instead of panicking, and PeekBits
// agrees with the ReadBits that follows it.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, []byte{1, 8, 3, 64, 0})
	f.Add([]byte{}, []byte{1, 1, 1})
	f.Add([]byte{0xff}, []byte{32, 32})
	f.Fuzz(func(t *testing.T, buf []byte, script []byte) {
		r := NewReader(buf)
		total := len(buf) * 8
		short := func(i int, err error) {
			if err != nil && !errors.Is(err, verdict.ErrCorrupt) {
				t.Fatalf("op %d: error %v is not verdict.ErrCorrupt", i, err)
			}
		}
		for i, op := range script {
			if r.BitsRead()+r.Remaining() != total {
				t.Fatalf("op %d: BitsRead %d + Remaining %d != %d",
					i, r.BitsRead(), r.Remaining(), total)
			}
			n := uint(op % 65)
			before := r.BitsRead()
			switch op % 4 {
			case 0: // ReadBit
				_, err := r.ReadBit()
				short(i, err)
				if (err != nil) != (r.Remaining() == 0 && before == r.BitsRead()) {
					// ReadBit errors iff no bits remain; on error the cursor
					// must not move.
					if err != nil && r.BitsRead() != before {
						t.Fatalf("op %d: cursor moved on error", i)
					}
				}
				if err == nil && r.BitsRead() != before+1 {
					t.Fatalf("op %d: ReadBit consumed %d bits", i, r.BitsRead()-before)
				}
			case 1: // ReadBits
				_, err := r.ReadBits(n)
				short(i, err)
				if err == nil && r.BitsRead() != before+int(n) {
					t.Fatalf("op %d: ReadBits(%d) consumed %d bits", i, n, r.BitsRead()-before)
				}
				if err != nil && before+int(n) <= total {
					t.Fatalf("op %d: ReadBits(%d) errored with %d bits available",
						i, n, total-before)
				}
			case 2: // PeekBits must not consume, and must match the next read
				if n > 32 {
					n = 32
				}
				peeked := r.PeekBits(n)
				if r.BitsRead() != before {
					t.Fatalf("op %d: PeekBits consumed bits", i)
				}
				if int(n) <= r.Remaining() {
					got, err := r.ReadBits(n)
					if err != nil {
						t.Fatalf("op %d: read after peek failed: %v", i, err)
					}
					if got != peeked {
						t.Fatalf("op %d: peek %x != read %x", i, peeked, got)
					}
				}
			case 3: // Skip
				err := r.Skip(n)
				short(i, err)
				if err == nil && r.BitsRead() != before+int(n) {
					t.Fatalf("op %d: Skip(%d) consumed %d bits", i, n, r.BitsRead()-before)
				}
				if err != nil && before+int(n) <= total {
					t.Fatalf("op %d: Skip(%d) errored with %d bits available",
						i, n, total-before)
				}
			}
		}
	})
}

// FuzzBitWriterReader round-trips an arbitrary write script through
// Writer then reads it back bit-exactly, covering zero-length writes and
// non-byte-aligned (odd tail) streams.
func FuzzBitWriterReader(f *testing.F) {
	f.Add([]byte{3, 7, 64, 1})
	f.Add([]byte{})
	f.Add([]byte{63, 63, 63})
	f.Fuzz(func(t *testing.T, script []byte) {
		w := NewWriter(0)
		type item struct {
			v uint64
			n uint
		}
		var items []item
		acc := uint64(88172645463325252)
		bits := 0
		for _, op := range script {
			n := uint(op % 65)
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
			v := acc
			if n < 64 {
				v &= (1 << n) - 1
			}
			w.WriteBits(v, n)
			items = append(items, item{v, n})
			bits += int(n)
		}
		if w.Len() != bits {
			t.Fatalf("Len %d, want %d", w.Len(), bits)
		}
		out := w.Bytes()
		if len(out) != (bits+7)/8 {
			t.Fatalf("%d bytes for %d bits", len(out), bits)
		}
		r := NewReader(out)
		for i, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
			if got != it.v {
				t.Fatalf("item %d: %x, want %x (n=%d)", i, got, it.v, it.n)
			}
		}
	})
}
