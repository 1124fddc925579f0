package inttest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"scdc"
	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/hpez"
	"scdc/internal/interp"
	"scdc/internal/lossless"
	"scdc/internal/mgard"
	"scdc/internal/qoz"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
	"scdc/internal/verdict"
)

// backendEngine is one of the four engines on the shared index-stream
// back-end (internal/core), with what the tests below need to know about
// its own part of the stream header (DESIGN.md §5).
type backendEngine struct {
	name       string
	compress   func(f *grid.Field, eb float64, qp bool) ([]byte, error)
	decompress func(payload []byte, dims []int) (*grid.Field, error)
	// alg is the engine's kind byte in the scdc container.
	alg scdc.Algorithm
	// side reports whether a coarse-lattice float block precedes the
	// index block.
	side bool
	// header walks the engine's own header fields around the shared QP
	// block and returns the offsets of its length/count fields.
	header func(w *plainWalker, dims []int) (counts []int)
}

var backendEngines = []backendEngine{
	{
		name: "sz3",
		compress: func(f *grid.Field, eb float64, qp bool) ([]byte, error) {
			o := sz3.DefaultOptions(eb)
			if qp {
				o = o.WithQP()
			}
			return sz3.Compress(f, o)
		},
		decompress: sz3.Decompress,
		alg:        scdc.SZ3,
		header: func(w *plainWalker, dims []int) []int {
			w.skip(3 + len(dims)) // mode, kind, ndims, dir order
			w.qpBlock()
			w.skip(8) // error bound
			return nil
		},
	},
	{
		name: "qoz",
		compress: func(f *grid.Field, eb float64, qp bool) ([]byte, error) {
			o := qoz.DefaultOptions(eb)
			if qp {
				o = o.WithQP()
			}
			return qoz.Compress(f, o)
		},
		decompress: qoz.Decompress,
		alg:        scdc.QoZ,
		side:       true,
		header: func(w *plainWalker, dims []int) []int {
			w.qpBlock()
			levels, at := w.uvarint()
			w.skip(int(levels) * (2 + len(dims) + 8)) // kind, ndims, order, eb
			return []int{at}
		},
	},
	{
		name: "hpez",
		compress: func(f *grid.Field, eb float64, qp bool) ([]byte, error) {
			o := hpez.DefaultOptions(eb)
			if qp {
				o = o.WithQP()
			}
			return hpez.Compress(f, o)
		},
		decompress: hpez.Decompress,
		alg:        scdc.HPEZ,
		side:       true,
		header: func(w *plainWalker, dims []int) []int {
			w.qpBlock()
			levels, atLevels := w.uvarint()
			w.skip(int(levels) * 13) // frozen mask, 4 weights, eb
			blocks := 1
			for _, d := range dims {
				blocks *= (d + 31) / 32
			}
			tableBytes, atTable := w.uvarint()
			w.skip(int(tableBytes) + 4*blocks) // cubic bits, block weights
			return []int{atLevels, atTable}
		},
	},
	{
		name: "mgard",
		compress: func(f *grid.Field, eb float64, qp bool) ([]byte, error) {
			o := mgard.DefaultOptions(eb)
			if qp {
				o = o.WithQP()
			}
			return mgard.Compress(f, o)
		},
		decompress: mgard.Decompress,
		alg:        scdc.MGARD,
		side:       true,
		header: func(w *plainWalker, dims []int) []int {
			w.qpBlock()
			_, at := w.uvarint() // levels
			w.skip(8)            // error bound
			return []int{at}
		},
	},
}

// plainWalker steps over a valid plaintext stream field by field.
type plainWalker struct {
	buf []byte
	off int
}

func (w *plainWalker) skip(n int) { w.off += n }

func (w *plainWalker) uvarint() (v uint64, at int) {
	v, k := binary.Uvarint(w.buf[w.off:])
	at = w.off
	w.off += k
	return v, at
}

// qpBlock steps over the shared block: qp mode, qp cond, qp max level,
// radius.
func (w *plainWalker) qpBlock() {
	w.skip(2)
	w.uvarint()
	w.uvarint()
}

// container lays payload out as the footer-less v1 scdc container of a
// field with the given dims, so the front door hands it to the engine
// as it is.
func container(alg scdc.Algorithm, dims []int, payload []byte) []byte {
	s := append([]byte("SCDC"), 1, byte(alg), byte(len(dims)))
	for _, d := range dims {
		s = binary.AppendUvarint(s, uint64(d))
	}
	return append(s, payload...)
}

// allocatedBy returns the bytes allocated while fn runs.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

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

// TestSteadyStateScratch: every engine takes its O(n) scratch — the
// working copy of the field and the two index arrays, 16 bytes a point
// with QP on — from the pools, so a second same-shape Compress does not
// allocate it again. A call right after the pools were drained pays for
// the scratch; the steady-state call must be cheaper by at least that
// much, and both must write the same stream (recycled buffers come back
// dirty).
func TestSteadyStateScratch(t *testing.T) {
	// Pools are per-P and emptied by the collector: one P and no
	// collection make what a Put leaves for the next Get deterministic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolsDropPuts() {
		t.Skip("sync.Pool drops Puts at random in this build (race detector)")
	}
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{64, 64, 64}, 5)
	eb := f.Range() * 1e-3
	scratch := uint64(16 * f.Len())
	for _, eng := range backendEngines {
		var streams [2][]byte
		run := func(i int) func() {
			return func() {
				var err error
				if streams[i], err = eng.compress(f, eb, true); err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
			}
		}
		runtime.GC()
		runtime.GC() // twice: the first only moves pooled buffers to the victim cache
		cold := allocatedBy(run(0))
		steady := allocatedBy(run(1))
		if !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("%s: stream differs between fresh and recycled scratch", eng.name)
		}
		if cold < steady+scratch*9/10 {
			t.Errorf("%s: steady-state Compress allocates %d bytes, fresh-pool call %d: the %d-byte scratch is not reused",
				eng.name, steady, cold, scratch)
		}
	}
}

// TestHostilePlaintext drives the shared stream reader with plaintexts
// that lie: for each engine, QP on and off, the lossless layer is peeled
// off a valid payload, the plaintext is truncated at every offset through
// the header and around each block's length field, and each length or
// count field is separately inflated; the result is re-wrapped and must
// fail with the shared verdict.ErrCorrupt — from the engine, and, put in
// a container, from scdc.Decompress — with no panic and nothing allocated
// beyond the decode bound.
func TestHostilePlaintext(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{20, 24, 28}, 3)
	dims := f.Dims()
	eb := f.Range() * 1e-3
	limit := uint64(lossless.PayloadLimit(f.Len()))
	for _, eng := range backendEngines {
		for _, qp := range []bool{false, true} {
			name := fmt.Sprintf("%s/qp=%v", eng.name, qp)
			payload, err := eng.compress(f, eb, qp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plain, err := lossless.Decompress(payload)
			if err != nil {
				t.Fatalf("%s: peel: %v", name, err)
			}

			// Locate every length/count field, checking on the way that the
			// walkers above describe the stream the engines really write.
			w := &plainWalker{buf: plain}
			counts := eng.header(w, dims)
			headerEnd := w.off
			var blocks []int // offsets of the shared blocks' count fields
			if eng.side {
				n, at := w.uvarint()
				w.skip(8 * int(n))
				blocks = append(blocks, at)
			}
			n, at := w.uvarint()
			w.skip(int(n))
			blocks = append(blocks, at)
			n, at = w.uvarint()
			w.skip(8 * int(n))
			blocks = append(blocks, at)
			if w.off != len(plain) {
				t.Fatalf("%s: layout walk ends at %d of %d plaintext bytes", name, w.off, len(plain))
			}

			hostile := make(map[string][]byte)
			for cut := 0; cut <= headerEnd; cut++ {
				hostile[fmt.Sprintf("truncate@%d", cut)] = plain[:cut]
			}
			for _, at := range blocks {
				hostile[fmt.Sprintf("truncate@%d", at)] = plain[:at]
				if at+1 < len(plain) {
					hostile[fmt.Sprintf("truncate@%d", at+1)] = plain[:at+1]
				}
			}
			for _, at := range append(counts, blocks...) {
				v, k := binary.Uvarint(plain[at:])
				lie := binary.AppendUvarint(append([]byte(nil), plain[:at]...), v|1<<40)
				hostile[fmt.Sprintf("inflate@%d", at)] = append(lie, plain[at+k:]...)
			}

			for what, text := range hostile {
				wrapped, err := lossless.Compress(lossless.Flate, text)
				if err != nil {
					t.Fatal(err)
				}
				var decErr error
				allocated := allocatedBy(func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s %s: decoder panicked: %v", name, what, r)
						}
					}()
					_, decErr = eng.decompress(wrapped, dims)
				})
				if !errors.Is(decErr, verdict.ErrCorrupt) {
					t.Errorf("%s %s: got %v, want ErrCorrupt", name, what, decErr)
				}
				if allocated > limit {
					t.Errorf("%s %s: allocated %d bytes, decode bound is %d", name, what, allocated, limit)
				}
				if _, err := scdc.Decompress(container(eng.alg, dims, wrapped)); !errors.Is(err, scdc.ErrCorrupt) {
					t.Errorf("%s %s: scdc.Decompress: got %v, want ErrCorrupt", name, what, err)
				}
			}

			// The mutations are what fails, not the re-wrapping.
			wrapped, err := lossless.Compress(lossless.Flate, plain)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.decompress(wrapped, dims); err != nil {
				t.Errorf("%s: re-wrapped valid plaintext: %v", name, err)
			}
			if _, err := scdc.Decompress(container(eng.alg, dims, wrapped)); err != nil {
				t.Errorf("%s: re-wrapped valid plaintext in a container: %v", name, err)
			}
		}
	}
}

// TestLiteralBlockAccounting: every engine's decode sweeps must consume
// the literal block exactly. For each engine, QP on and off, a field with
// unpredictable points is compressed, the literal block at the end of the
// plaintext is rewritten one value short and one value long, and both
// must fail with verdict.ErrCorrupt carrying the one message core.Sweep
// has for each case.
func TestLiteralBlockAccounting(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{20, 24, 28}, 3)
	dims := f.Dims()
	eb := f.Range() * 1e-3
	for i := 5; i < f.Len(); i += 997 {
		f.Data[i] += eb * 1e9 // far outside the quantizer's range at any level bound
	}
	for _, eng := range backendEngines {
		for _, qp := range []bool{false, true} {
			name := fmt.Sprintf("%s/qp=%v", eng.name, qp)
			payload, err := eng.compress(f, eb, qp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plain, err := lossless.Decompress(payload)
			if err != nil {
				t.Fatalf("%s: peel: %v", name, err)
			}
			w := &plainWalker{buf: plain}
			eng.header(w, dims)
			if eng.side {
				n, _ := w.uvarint()
				w.skip(8 * int(n))
			}
			n, _ := w.uvarint()
			w.skip(int(n))
			nlit, at := w.uvarint()
			lits := plain[w.off:]
			if nlit == 0 || len(lits) != 8*int(nlit) {
				t.Fatalf("%s: literal block of %d values in %d bytes; the field should force some", name, nlit, len(lits))
			}
			for _, tc := range []struct {
				what  string
				count uint64
				block []byte
				want  string
			}{
				{"truncated", nlit - 1, lits[:len(lits)-8], "literal stream exhausted"},
				{"padded", nlit + 1, append(lits[:len(lits):len(lits)], make([]byte, 8)...), "unused literals"},
			} {
				text := binary.AppendUvarint(append([]byte(nil), plain[:at]...), tc.count)
				wrapped, err := lossless.Compress(lossless.Flate, append(text, tc.block...))
				if err != nil {
					t.Fatal(err)
				}
				_, err = eng.decompress(wrapped, dims)
				if !errors.Is(err, verdict.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %s literal block: got %v, want ErrCorrupt: … %s", name, tc.what, err, tc.want)
				}
			}
		}
	}
}

// TestBareSweepMatchesWorkSweep: the bare sweep the level-bound tuners run
// their trials on is the compression sweep with QP off — same symbols,
// literals, anchors and decompressed field as the back-end's sweep over
// its pooled scratch, on the schedule SZ3 and QoZ share, with and without
// an anchor lattice. (HPEZ's trial goes through its own compressCore and
// is pinned next to it, in TestLatticeKernelsMatchWalker.)
func TestBareSweepMatchesWorkSweep(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{20, 24, 28}, 3)
	dims := f.Dims()
	quant := quantizer.Linear{EB: f.Range() * 1e-3, Radius: 64} // a narrow radius forces literals
	spec := sz3.LevelSpec{Order: sz3.DefaultDirOrder(len(dims)), Kind: interp.Cubic, Quant: quant}
	for _, anchored := range []bool{false, true} {
		levels := sz3.Levels(dims)
		if anchored {
			levels = 3
		}
		run := func(sw *core.Sweep) (anchors []float64) {
			if anchored {
				anchors = sw.GatherCoarse(dims, levels, quant.Radius)
			}
			sz3.CompressSchedule(sw, dims, levels, func(int) sz3.LevelSpec { return spec })
			return anchors
		}
		b := core.DefaultBackend()
		full, err := b.Sweep(f.Data, false, core.StageInterp)
		if err != nil {
			t.Fatal(err)
		}
		bare := core.NewSweep(slices.Clone(f.Data), make([]int32, f.Len()))
		fullAnchors, bareAnchors := run(full), run(bare)
		// Without anchors the origin belongs to a stage outside the
		// schedule and neither sweep writes its symbol.
		from := 1
		if anchored {
			from = 0
		}
		if !slices.Equal(bare.Sym[from:], full.Sym[from:]) || !slices.Equal(bare.Lits, full.Lits) ||
			!slices.Equal(bare.Data, full.Data) || !slices.Equal(bareAnchors, fullAnchors) {
			t.Errorf("anchored=%v: bare sweep diverges from the back-end's sweep (%d vs %d literals)", anchored, len(bare.Lits), len(full.Lits))
		}
		if len(full.Lits) == 0 {
			t.Errorf("anchored=%v: no literals; the radius should force some", anchored)
		}
		full.Release()
	}
}
