package qoz

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/entropy"
	"scdc/internal/grid"
	"scdc/internal/huffman"
	"scdc/internal/interp"
	"scdc/internal/sz3"
)

// walkLevelRef visits every point of one level in schedule order, derived
// from the schedule's definition with plain nested loops (no sz3 pass
// geometry): directions in order skipping axes too short for the stride,
// orthogonal coordinates ascending with the slowest axis outermost — step
// s on processed axes, 2s on pending ones — then t over the odd multiples
// of s.
func walkLevelRef(dims, strides []int, level int, order []int, fn func(idx, lineBase, lineStrd, n, t, s int)) {
	s := 1 << (level - 1)
	done := make([]bool, len(dims))
	for _, dir := range order {
		if s >= dims[dir] {
			done[dir] = true
			continue
		}
		var rec func(axis, base int)
		rec = func(axis, base int) {
			switch {
			case axis == len(dims):
				for t := s; t < dims[dir]; t += 2 * s {
					fn(base+t*strides[dir], base, strides[dir], dims[dir], t, s)
				}
			case axis == dir:
				rec(axis+1, base)
			default:
				step := 2 * s
				if done[axis] {
					step = s
				}
				for c := 0; c < dims[axis]; c += step {
					rec(axis+1, base+c*strides[axis])
				}
			}
		}
		rec(0, 0)
		done[dir] = true
	}
}

// buildPlanRef is the tuner this package shipped before the ordinal
// sampler: starting from defaultPlan, every (order, kind) candidate walks
// the whole level and keeps each step-th point, residuals go through the
// closure-based interp.Line into a fresh symbol slice, and each (alpha,
// beta) trial compresses a fresh copy of the crop.
func buildPlanRef(f *grid.Field, opts Options) plan {
	dims := f.Dims()
	pl := defaultPlan(dims, opts)
	strides := grid.Strides(dims)
	data, eb := f.Data, opts.ErrorBound

	for level := 1; level <= pl.levels; level++ {
		step := samplingStep(dims, level)
		score := func(kind interp.Kind, order []int) float64 {
			var symbols []int32
			decim := 0
			walkLevelRef(dims, strides, level, order, func(idx, base, strd, n, t, s int) {
				decim++
				if decim%step != 0 {
					return
				}
				p := interp.Line(func(pos int) float64 { return data[base+pos*strd] }, n, t, s, kind)
				r := (data[idx] - p) / (2 * eb)
				if math.Abs(r) > 1e6 {
					r = math.Copysign(1e6, r)
				}
				sym := int32(math.MinInt32) // NaN, pinned to amd64's conversion
				if !math.IsNaN(r) {
					sym = int32(math.Round(r))
				}
				symbols = append(symbols, sym)
			})
			if len(symbols) == 0 {
				return math.Inf(1)
			}
			return entropy.Shannon(symbols)
		}
		defOrder := sz3.DefaultDirOrder(len(dims))
		bestKind, bestOrder := interp.Cubic, defOrder
		bestCost := score(interp.Cubic, defOrder)
		for _, order := range orderCandidates(len(dims)) {
			for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
				if kind == interp.Cubic && slices.Equal(order, defOrder) {
					continue
				}
				if c := score(kind, order); c < bestCost*0.98 {
					bestCost, bestKind, bestOrder = c, kind, order
				}
			}
		}
		pl.kinds[level-1], pl.orders[level-1] = bestKind, bestOrder
	}

	bound := func(l int, cand [2]float64) float64 {
		eb := opts.ErrorBound / math.Pow(cand[0], float64(l-1))
		if floor := opts.ErrorBound / cand[1]; eb < floor {
			eb = floor
		}
		return eb
	}
	cands := [][2]float64{{1, 1}, {1.25, 2}, {1.5, 2}, {2, 3}}
	crop := sz3.CenterCrop(f, 32)
	best, bestBytes := cands[0], math.MaxInt
	for _, cand := range cands {
		trial := pl
		trial.levels = min(max(sz3.Levels(crop.Dims()), 1), pl.levels)
		trial.ebs = make([]float64, trial.levels)
		for l := 1; l <= trial.levels; l++ {
			trial.ebs[l-1] = bound(l, cand)
		}
		data := append([]float64(nil), crop.Data...)
		q := make([]int32, len(data))
		sw := core.NewSweep(data, q)
		compressCore(sw, crop.Dims(), trial)
		if n := len(huffman.Encode(q)) + 8*len(sw.Lits); n < bestBytes {
			best, bestBytes = cand, n
		}
	}
	for l := 1; l <= pl.levels; l++ {
		pl.ebs[l-1] = bound(l, best)
	}
	return pl
}

// tunerFields are every datagen dataset at a reduced geometry plus 1D, 2D
// and 4D fields, which have their own order candidates, and a field with
// NaN and ±Inf samples in the level-bound crop and out of it: its NaN and
// Inf-Inf residuals take the tuner's NaN symbol, and their spread the
// sparse entropy count.
func tunerFields() map[string]*grid.Field {
	fields := map[string]*grid.Field{
		"1d": synth(3000), "2d": synth(130, 97), "4d": synth(12, 9, 20, 17),
	}
	nan := synth(40, 44, 36)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{101 + 7*i, 20*44*36 + 22*36 + 17 + 2*i, 20*44*36 + 23*36 + 17 + 2*i, 50000 + 11*i} {
			nan.Data[at] = v
		}
	}
	fields["nan"] = nan
	for _, spec := range datagen.Specs() {
		dims := make([]int, len(spec.Dims))
		for d, n := range spec.Dims {
			dims[d] = n/2 + 1
		}
		fields[spec.Name] = datagen.MustGenerate(spec.Dataset, 1, dims, 1)
	}
	return fields
}

// TestBuildPlanMatchesReferenceTuner: the sampled tuner takes the
// decisions of the full-walk tuner it replaced — same kinds, orders and
// bit-equal bounds — on every dataset at two bounds.
func TestBuildPlanMatchesReferenceTuner(t *testing.T) {
	for name, f := range tunerFields() {
		for _, rel := range []float64{1e-3, 1e-5} {
			opts := DefaultOptions(rel * finiteRange(f))
			got, want := buildPlan(f, opts), buildPlanRef(f, opts)
			if !bytes.Equal(encodePlan(got), encodePlan(want)) {
				t.Errorf("%s rel=%g: plan differs from the reference tuner\n got %+v\nwant %+v", name, rel, got, want)
			}
		}
	}
}

// finiteRange is the value range of f's finite samples.
func finiteRange(f *grid.Field) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return hi - lo
}

// TestSymbolNonFinite: a NaN residual takes math.MinInt32 and an infinite
// one the clamp, whatever the platform's float conversion does with NaN.
func TestSymbolNonFinite(t *testing.T) {
	tu := levelTuner{eb: 0.5}
	for _, c := range []struct {
		resid float64
		want  int32
	}{
		{math.NaN(), math.MinInt32}, {math.Inf(1), 1e6}, {math.Inf(-1), -1e6},
		{3e6, 1e6}, {-2.5, -3}, {0.4, 0},
	} {
		if got := tu.symbol(c.resid); got != c.want {
			t.Errorf("symbol(%v) = %d, want %d", c.resid, got, c.want)
		}
	}
}

// TestTunerSeesEveryCandidate guards the test above against a field set
// on which the tuner never leaves the default: some level of some field
// must pick a non-default order and some level a linear spline.
func TestTunerSeesEveryCandidate(t *testing.T) {
	var linear, reordered bool
	for _, f := range tunerFields() {
		pl := buildPlan(f, DefaultOptions(1e-3*finiteRange(f)))
		def := sz3.DefaultDirOrder(len(f.Dims()))
		for l := range pl.kinds {
			linear = linear || pl.kinds[l] == interp.Linear
			reordered = reordered || !slices.Equal(pl.orders[l], def)
		}
	}
	if !linear || !reordered {
		t.Fatalf("tuner decisions too uniform to pin: linear=%v reordered=%v", linear, reordered)
	}
}

// benchField is the field of the repository benchmark's qoz_tuned
// workload.
func benchField() *grid.Field {
	return datagen.MustGenerate(datagen.SegSalt, 1, []int{96, 96, 80}, 1)
}

// TestCompressDeterministic: the tuner's scores are summed in a fixed
// order, so repeated compressions of one field yield one stream.
func TestCompressDeterministic(t *testing.T) {
	f := benchField()
	opts := DefaultOptions(1e-3 * f.Range()).WithQP()
	first, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		again, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("compression %d produced a different stream", i)
		}
	}
}

// TestBuildPlanAllocs: the tuner reuses one sample scratch across its
// candidates and its entropy counts into a pooled histogram; what remains
// is the plan, the crop scratch, the four trial sweeps and the histogram
// and code lengths each trial is priced from — 135 allocations on this
// field, ~192 under -race (the map-histogram tuner took about 4 500).
func TestBuildPlanAllocs(t *testing.T) {
	f := benchField()
	opts := DefaultOptions(1e-3 * f.Range())
	limit := 160.0
	if raceEnabled {
		limit = 240
	}
	if got := testing.AllocsPerRun(5, func() { buildPlan(f, opts) }); got > limit {
		t.Errorf("buildPlan allocates %v times per call, want <= %v", got, limit)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestEncodedLenPricesTrials: on the crop arrays every level-bound trial
// of the qoz_tuned field leaves, the price the tuner compares is the
// length of the stream Huffman would write.
func TestEncodedLenPricesTrials(t *testing.T) {
	f := benchField()
	opts := DefaultOptions(1e-3 * f.Range())
	pl := buildPlan(f, opts)
	trials := 0
	sz3.TuneLevelBounds(f, make([]float64, pl.levels), opts.ErrorBound,
		func(sw *core.Sweep, dims []int, ebs []float64) {
			trial := pl
			trial.levels, trial.ebs = len(ebs), ebs
			compressCore(sw, dims, trial)
			if got, want := huffman.EncodedLen(sw.Sym), len(huffman.Encode(sw.Sym)); got != want {
				t.Errorf("trial %d: EncodedLen = %d, Encode writes %d", trials, got, want)
			}
			trials++
		})
	if trials != 4 {
		t.Fatalf("%d trials, want 4", trials)
	}
}

// BenchmarkQoZTuner times the tuner's two stages on the qoz_tuned field:
// levels is the per-level kind/order scoring, per sample scored; bounds
// is the level-bound search (four trial compressions of the crop, priced
// by huffman.EncodedLen), per crop point.
func BenchmarkQoZTuner(b *testing.B) {
	f := benchField()
	opts := DefaultOptions(1e-3 * f.Range())
	pl := defaultPlan(f.Dims(), opts)
	b.Run("levels", func(b *testing.B) {
		tu := levelTuner{data: f.Data, dims: f.Dims(), strides: grid.Strides(f.Dims()), eb: opts.ErrorBound,
			orders: orderCandidates(f.NDims())}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for l := 1; l <= pl.levels; l++ {
				tu.tuneLevel(l)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tu.samples), "ns/sample")
	})
	b.Run("bounds", func(b *testing.B) {
		points := sz3.CenterCrop(f, 32).Len()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sz3.TuneLevelBounds(f, pl.ebs, opts.ErrorBound, func(sw *core.Sweep, dims []int, ebs []float64) {
				trial := pl
				trial.levels, trial.ebs = len(ebs), ebs
				compressCore(sw, dims, trial)
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
	})
}
