package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"scdc/internal/verdict"
)

// TestOverSubscribedTableRejected: a table header whose lengths claim more
// code space than exists is corrupt. Three 1-bit codes used to send
// newDecoder's fast-table fill past the end of its array (index out of
// range [4096]); two 1-bit codes and a 64-bit one wrap the canonical walk
// to code 0. Both table parsers now share one check.
func TestOverSubscribedTableRejected(t *testing.T) {
	for name, stream := range map[string][]byte{
		"three 1-bit codes":          overSubscribedStream(),
		"two 1-bit, one 64-bit":      tableStream(1, []int{1, 1, 64}, []byte{0x00}),
		"sharded, three 1-bit codes": append([]byte{shardedMarker, shardedVersion}, overSubscribedStream()...),
	} {
		for _, n := range []int{-1, 1} {
			if _, err := DecodeN(stream, n); !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s, n=%d: got %v, want ErrCorrupt", name, n, err)
			}
		}
	}
	// Over-subscribed tables of 13–20-bit codes fail in the header
	// check, before a decoder, and so a second-level table, exists: with
	// the pool emptied, a failed decode allocates the parsed header, not
	// the 32 KB of a decoder's first-level table.
	for name, stream := range map[string][]byte{
		"over-subscribed 13-20 bits":   tableStream(1, []int{1, 1, 13, 13, 14, 20}, []byte{0x00}),
		"complete to 20 bits, then 64": tableStream(1, append(ascending(20), 20, 64), []byte{0x00}),
	} {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeN(stream, -1)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, verdict.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10 {
			t.Errorf("%s: a rejected table allocated %d bytes", name, n)
		}
	}
	if err := checkCanonical([]uint8{1, 2, 3, 3}); err != nil {
		t.Errorf("complete code rejected: %v", err)
	}
	if err := checkCanonical([]uint8{1, 2, 64, 64}); err != nil {
		t.Errorf("code reaching 64 bits rejected: %v", err)
	}
}

// ascending returns the lengths 1, 2, …, n.
func ascending(n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = i + 1
	}
	return ls
}

// repeat returns n copies of length l.
func repeat(l, n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = l
	}
	return ls
}

// codedStream codes q under the canonical code of the given lengths over
// symbols 0, 1, 2, … as a single-body stream.
func codedStream(lengths []int, q []int32) []byte {
	table := make([]symLen, len(lengths))
	for i, l := range lengths {
		table[i] = symLen{int32(i), l}
	}
	cs := buildCodes(table, 0, int32(len(table)-1), true)
	return tableStream(len(q), lengths, encodeBody(nil, q, &cs))
}

// overSubscribedStream is one sample under three 1-bit codes.
func overSubscribedStream() []byte { return tableStream(1, []int{1, 1, 1}, []byte{0x00}) }

// tableStream assembles a single-body stream declaring nsamp samples under
// symbols 0, 1, 2, … with the given code lengths, whatever they add up to.
func tableStream(nsamp int, lengths []int, body []byte) []byte {
	hdr := binary.AppendUvarint(nil, uint64(nsamp))
	hdr = binary.AppendUvarint(hdr, uint64(len(lengths)))
	for i, l := range lengths {
		hdr = binary.AppendVarint(hdr, int64(min(i, 1)))
		hdr = binary.AppendUvarint(hdr, uint64(l))
	}
	out := binary.AppendUvarint(nil, uint64(len(hdr)))
	return append(append(out, hdr...), body...)
}

// kraftLengths draws up to max code lengths from pick while they fit the
// code space, ascending: a table any canonical decoder must accept.
func kraftLengths(rng *rand.Rand, max int, pick func() int) []int {
	const unit = 40 // lengths are at most 40 bits
	budget := uint64(1) << unit
	var ls []int
	for i := 0; i < max && budget > 0; i++ {
		l := pick()
		if c := uint64(1) << (unit - l); c <= budget {
			ls = append(ls, l)
			budget -= c
		}
	}
	sort.Ints(ls)
	return ls
}

// diffTable is a canonical table and a symbol stream coded under it.
type diffTable struct {
	name  string
	table []symLen
	q     []int32
}

// diffTables builds the tables the kernels are pitted on: one symbol,
// short codes only (complete, with holes, random), and short codes mixed
// with 12-bit and 13–40-bit ones. Streams favour the short codes but draw
// every code, so long codes sit between runs of short ones.
func diffTables(rng *rand.Rand) []diffTable {
	shapes := []struct {
		name    string
		lengths []int
	}{
		{"one symbol", []int{1}},
		{"short complete", []int{1, 2, 3, 3}},
		{"short with holes", []int{2, 2, 3}},
		{"random short", kraftLengths(rng, 40, func() int { return 1 + rng.Intn(5) })},
		{"1-3 and 12 bits", kraftLengths(rng, 400, func() int {
			if rng.Intn(3) == 0 {
				return 12
			}
			return 1 + rng.Intn(3)
		})},
		{"1-3, 12 and 13-40 bits", kraftLengths(rng, 400, func() int {
			switch rng.Intn(5) {
			case 0:
				return 12
			case 1, 2:
				return 13 + rng.Intn(28)
			}
			return 1 + rng.Intn(3)
		})},
		{"11-bit window edge", []int{1, 3, 5, 7, 9, 11, 11, 12, 13, 13}},
		{"1-3 and 13-20 bits", kraftLengths(rng, 400, func() int {
			if rng.Intn(2) == 0 {
				return 13 + rng.Intn(8)
			}
			return 1 + rng.Intn(3)
		})},
		// 20-bit codes share their 12-bit prefixes with 21–30-bit ones,
		// which the second-level tables leave to resyncSlow.
		{"20 bits and over the cap", kraftLengths(rng, 400, func() int {
			switch rng.Intn(4) {
			case 0:
				return 20
			case 1:
				return 21 + rng.Intn(10)
			}
			return 1 + rng.Intn(3)
		})},
		// 16400 20-bit codes fill 65 prefixes of 256 entries each: the
		// last no longer fits subCap and decodes through resyncSlow.
		{"second level full", append([]int{1, 2, 3}, repeat(20, 16400)...)},
	}
	var out []diffTable
	for _, sh := range shapes {
		table := make([]symLen, len(sh.lengths))
		sym := int32(-40)
		for i, l := range sh.lengths {
			sym += 1 + int32(rng.Intn(3))
			table[i] = symLen{sym, l}
		}
		short := 0
		for short < len(table) && table[short].len <= 3 {
			short++
		}
		q := make([]int32, 1500)
		for i := range q {
			if short > 0 && rng.Intn(10) != 0 {
				q[i] = table[rng.Intn(short)].sym
			} else {
				q[i] = table[rng.Intn(len(table))].sym
			}
		}
		out = append(out, diffTable{sh.name, table, q})
	}
	return out
}

// plainBlock is the single-body block of n symbols coded in body under
// the table (syms, lengths).
func plainBlock(syms []int32, lengths []uint8, body []byte, n int) *block {
	return &block{n: uint64(n), m: uint64(n), syms: syms, lengths: lengths, body: body}
}

// decodeKernels decodes body with each kernel.
func decodeKernels(syms []int32, lengths []uint8, body []byte, n int) (single, multi []int32, serr, merr error) {
	single, multi = make([]int32, n), make([]int32, n)
	b := plainBlock(syms, lengths, body, n)
	return single, multi, b.decode(single, false), b.decode(multi, true)
}

// decodeResync decodes body with the single-symbol kernel on a decoder
// stripped of its second-level tables, so every code over 12 bits goes
// through resyncSlow: the decode before the second-level tables.
func decodeResync(syms []int32, lengths []uint8, body []byte, n int) ([]int32, error) {
	d := newDecoder(syms, lengths, false)
	defer d.release()
	for i := range d.tabs.fast {
		d.tabs.fast[i].sub = 0
	}
	out := make([]int32, n)
	return out, d.decodeSingle(body, body, 0, 0, out)
}

// sameAsResync reports a disagreement between both kernels and
// decodeResync on body.
func sameAsResync(syms []int32, lengths []uint8, body []byte, n int) error {
	single, multi, serr, merr := decodeKernels(syms, lengths, body, n)
	if err := sameResult(single, multi, serr, merr); err != nil {
		return fmt.Errorf("single vs multi: %w", err)
	}
	ref, rerr := decodeResync(syms, lengths, body, n)
	if err := sameResult(single, ref, serr, rerr); err != nil {
		return fmt.Errorf("second-level tables vs resyncSlow: %w", err)
	}
	return nil
}

// sameResult reports a disagreement between two decodes: an error that
// differs, or, without one, output that differs.
func sameResult(a, b []int32, aerr, berr error) error {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Errorf("errors differ: %v / %v", aerr, berr)
	}
	if aerr == nil {
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("symbol %d: %d / %d", i, a[i], b[i])
			}
		}
	}
	return nil
}

// TestMultiMatchesSingle pits the multi-symbol kernel against the
// single-symbol one, and both against the resyncSlow-only decode, on
// every table of diffTables: the body as written must decode to the
// stream, and every truncation of it and a set of byte corruptions must
// give all three the same error or the same output.
func TestMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, tc := range diffTables(rng) {
		syms, lengths := make([]int32, len(tc.table)), make([]uint8, len(tc.table))
		for i, sl := range tc.table {
			syms[i], lengths[i] = sl.sym, uint8(sl.len)
		}
		if err := checkCanonical(lengths); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lo, hi := syms[0], syms[len(syms)-1]
		cs := buildCodes(tc.table, min(lo, hi), max(lo, hi), false)
		body := encodeBody(nil, tc.q, &cs)

		single, multi, serr, merr := decodeKernels(syms, lengths, body, len(tc.q))
		if serr != nil || merr != nil {
			t.Fatalf("%s: body as written: %v / %v", tc.name, serr, merr)
		}
		for i := range tc.q {
			if single[i] != tc.q[i] || multi[i] != tc.q[i] {
				t.Fatalf("%s: symbol %d: single %d, multi %d, want %d", tc.name, i, single[i], multi[i], tc.q[i])
			}
		}
		for cut := 0; cut < len(body); cut++ {
			if err := sameAsResync(syms, lengths, body[:cut], len(tc.q)); err != nil {
				t.Fatalf("%s, body cut to %d of %d bytes: %v", tc.name, cut, len(body), err)
			}
		}
		for k := 0; k < 200; k++ {
			mut := append([]byte(nil), body...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			if err := sameAsResync(syms, lengths, mut, len(tc.q)); err != nil {
				t.Fatalf("%s, corruption %d: %v", tc.name, k, err)
			}
		}
	}
}

// blockWith decodes a block with its layout's table-driven kernel (fast)
// or the single-symbol one, whatever multiPays would pick: for a sharded
// or byte-alphabet block decodeMulti or decodeSingle on every shard, for
// a run-coded one expandFast first or decodeSingle and the in-place
// expansion alone.
func blockWith(b block, err error, fast bool) ([]int32, error) {
	if err != nil {
		return nil, err
	}
	out := make([]int32, b.n)
	return out, b.decode(out, fast)
}

// TestMultiKernelLayouts: the sharded index sub-format, the byte
// sub-format and the run-coded index sub-format pick their
// table-driven kernel for a long stream of short codes and decode it, as
// written and corrupted, as the single-symbol kernel does: the same
// output and error, and for the run-coded stream, whose other path is the
// single-symbol kernel and the in-place expansion, the same output or
// both an error.
func TestMultiKernelLayouts(t *testing.T) {
	const n = 1 << 17
	q := geometricStream(n, 0.25, 5)
	raw := make([]byte, n)
	for i, v := range q {
		raw[i] = byte(v)
	}
	index := encodeSharded(q, 4)
	bytesEnc := EncodeBytesTo(nil, raw, 3)
	if !multiPays(n, len(index)) || !multiPays(n, len(bytesEnc)) {
		t.Fatalf("short-code streams (%d, %d bytes for %d symbols) stay on the single-symbol kernel", len(index), len(bytesEnc), n)
	}
	rq := modalStream(3*n, 0.8, 6)
	runEnc := encode(rq)
	if r, err := parseBlock(runEnc, len(rq)); err != nil || !r.runs || !multiPays(int(r.m), len(r.body)) {
		t.Fatalf("run-coded stream (%d bytes for %d symbols) stays on the single-symbol kernel: %v", len(runEnc), len(rq), err)
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 12; k++ {
		idx, byt, rc := index, bytesEnc, runEnc
		if k > 0 {
			idx, byt, rc = bytes.Clone(index), bytes.Clone(bytesEnc), bytes.Clone(runEnc)
			idx[len(idx)-1-rng.Intn(len(idx)/2)] ^= 0x5A
			byt[len(byt)-1-rng.Intn(len(byt)/2)] ^= 0x5A
			rc[len(rc)-1-rng.Intn(len(rc)/2)] ^= 0x5A
		}
		rgot, rerr := DecodeN(rc, len(rq))
		rb, rberr := parseBlock(rc, -1)
		rsingle, rserr := blockWith(rb, rberr, false)
		rfast, rferr := blockWith(rb, rberr, true)
		// The two paths meet a corruption in another order, so their
		// errors' messages may differ.
		if e := sameResult(rgot, rfast, rerr, rferr); e != nil {
			t.Fatalf("run-coded stream %d, DecodeN vs run table: %v", k, e)
		}
		if (rserr == nil) != (rferr == nil) || (rserr == nil && sameResult(rsingle, rfast, nil, nil) != nil) {
			t.Fatalf("run-coded stream %d, single vs run table: %v / %v", k, rserr, rferr)
		}
		if k == 0 && sameResult(rgot, rq, rerr, nil) != nil {
			t.Fatalf("run-coded stream: %v", rerr)
		}
		got, err := DecodeN(idx, n)
		ib, iberr := parseBlock(idx, -1)
		single, serr := blockWith(ib, iberr, false)
		multi, merr := blockWith(ib, iberr, true)
		if e := sameResult(got, multi, err, merr); e != nil {
			t.Fatalf("index stream %d, DecodeN vs multi: %v", k, e)
		}
		if e := sameResult(single, multi, serr, merr); e != nil {
			t.Fatalf("index stream %d, single vs multi: %v", k, e)
		}
		if k == 0 && sameResult(got, q, err, nil) != nil {
			t.Fatalf("index stream: %v", err)
		}
		dst := make([]byte, n)
		err = DecodeBytesInto(dst, byt)
		bb, bberr := parseBytes(byt, n)
		single, serr = blockWith(bb, bberr, false)
		multi, merr = blockWith(bb, bberr, true)
		if e := sameResult(single, multi, serr, merr); e != nil {
			t.Fatalf("byte stream %d, single vs multi: %v", k, e)
		}
		if (err == nil) != (merr == nil) {
			t.Fatalf("byte stream %d: DecodeBytesInto %v, multi %v", k, err, merr)
		}
		if k == 0 && (err != nil || !bytes.Equal(dst, raw)) {
			t.Fatalf("byte stream did not round-trip: %v", err)
		}
	}
}

// TestKernelChoice: the decoder takes the multi-symbol kernel for long
// streams of short codes only — not for a ~10-bit stream, where it is
// slower, nor for a short stream, which would not win back the table
// build.
func TestKernelChoice(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		r    float64
		want bool
		bits [2]float64 // the profile's bits/symbol range
	}{
		{"<=2 bits/symbol", 1 << 17, 0.25, true, [2]float64{1, 2}},
		{"~10 bits/symbol", 1 << 17, 0.995, false, [2]float64{9, 11}},
		{"short stream", 4096, 0.25, false, [2]float64{1, 2}},
	} {
		_, _, n, body := splitStream(t, plainStream(geometricStream(tc.n, tc.r, 3)))
		if bits := float64(8*len(body)) / float64(n); bits < tc.bits[0] || bits > tc.bits[1] {
			t.Fatalf("%s: stream codes to %.2f bits/symbol", tc.name, bits)
		}
		if got := multiPays(n, len(body)); got != tc.want {
			t.Errorf("%s: multiPays = %v, want %v", tc.name, got, tc.want)
		}
	}
}
