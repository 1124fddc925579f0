// Package bitstream implements MSB-first bit-level readers and writers used
// by the Huffman coder and the embedded bit-plane coders (ZFP-, SPERR- and
// TTHRESH-like comparators).
package bitstream

import (
	"fmt"

	"scdc/internal/verdict"
)

// errShort is what a reader returns when it runs out of bits: the stream
// ends before its own structure says it should. Made once, so the read
// paths allocate nothing.
var errShort = fmt.Errorf("%w: bitstream: unexpected end of stream", verdict.ErrCorrupt)

// Writer accumulates bits MSB-first into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within nbit
	nbit uint   // number of pending bits in cur (0..63)
}

// NewWriter returns a Writer with capacity hint n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint64(b&1)
	w.nbit++
	if w.nbit == 64 {
		w.flush64()
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 57] for a single call; larger values are split.
func (w *Writer) WriteBits(v uint64, n uint) {
	for n > 32 {
		w.WriteBits(v>>(n-32), 32)
		n -= 32
		v &= (1 << n) - 1
	}
	if n == 0 {
		return
	}
	space := 64 - w.nbit
	if n <= space {
		w.cur = w.cur<<n | (v & ((1 << n) - 1))
		w.nbit += n
		if w.nbit == 64 {
			w.flush64()
		}
		return
	}
	hi := n - space
	w.cur = w.cur<<space | (v>>hi)&((1<<space)-1)
	w.nbit = 64
	w.flush64()
	w.cur = v & ((1 << hi) - 1)
	w.nbit = hi
}

func (w *Writer) flush64() {
	for i := 0; i < 8; i++ {
		w.buf = append(w.buf, byte(w.cur>>(56-8*uint(i))))
	}
	w.cur, w.nbit = 0, 0
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.nbit) }

// Bytes finalizes the stream, padding the last byte with zero bits, and
// returns the backing buffer. The writer remains usable; further writes
// append after the padding, so call Bytes only once per stream.
func (w *Writer) Bytes() []byte {
	if w.nbit > 0 {
		pad := (8 - w.nbit%8) % 8
		w.cur <<= pad
		w.nbit += pad
		for w.nbit >= 8 {
			w.nbit -= 8
			w.buf = append(w.buf, byte(w.cur>>w.nbit))
		}
		w.cur = 0
	}
	return w.buf
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nbit = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within buf[pos], 0 = MSB
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, errShort
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// ReadBits reads n bits (n ≤ 64) most significant first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.pos >= len(r.buf) {
			return 0, errShort
		}
		avail := 8 - r.bit
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[r.pos]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.bit += take
		if r.bit == 8 {
			r.bit = 0
			r.pos++
		}
		n -= take
	}
	return v, nil
}

// PeekBits returns the next n bits (n <= 32) without consuming them,
// MSB-first. Bits past the end of the stream read as zero; combined with
// Skip this supports table-driven decoders that over-peek near the end.
func (r *Reader) PeekBits(n uint) uint64 {
	var v uint64
	pos, bit := r.pos, r.bit
	for n > 0 {
		if pos >= len(r.buf) {
			v <<= n
			break
		}
		avail := 8 - bit
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[pos]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		bit += take
		if bit == 8 {
			bit = 0
			pos++
		}
		n -= take
	}
	return v
}

// Skip consumes n bits. Skipping past the end is verdict.ErrCorrupt.
func (r *Reader) Skip(n uint) error {
	total := r.pos*8 + int(r.bit) + int(n)
	if total > len(r.buf)*8 {
		return errShort
	}
	r.pos = total / 8
	r.bit = uint(total % 8)
	return nil
}

// BitsRead returns the number of bits consumed so far.
func (r *Reader) BitsRead() int { return r.pos*8 + int(r.bit) }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.BitsRead() }
