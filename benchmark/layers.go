package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"scdc"
	"scdc/internal/core"
	"scdc/internal/entropy"
	"scdc/internal/huffman"
	"scdc/internal/lossless"
	"scdc/internal/obs"
	"scdc/internal/rice"
	"scdc/internal/sz3"
)

const (
	// layerReps is how often each layer call outside the product's own spans
	// is timed; the metric is the median.
	layerReps = 5
	// parallelReps is how often the one- and two-worker calls are timed.
	parallelReps = 3
)

// series collects samples per name and reports medians.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64    { return median(s[name]) }
func (s series) p25(name string) float64    { return quantile(s[name], 0.25) }

// stageOrder is the product's stage taxonomy, in pipeline order.
var stageOrder = []string{"choose", "interp", "qp", "quantize", "huffman", "lossless", "unattributed"}

// addStages records, under "<dir>/", the milliseconds of the call's root
// span, of each stage (its direct children, same names summed) and of the
// root's self time.
func (s series) addStages(dir string, rep *obs.Report) {
	byName := map[string]int64{"root": rep.NS, "unattributed": selfNS(rep)}
	for _, c := range rep.Children {
		byName[c.Name] += c.NS
	}
	for _, name := range append([]string{"root"}, stageOrder...) {
		s.add(dir+"/"+name, float64(byName[name])/1e6)
	}
}

// shares renders each stage's median as a share of the median root span.
func (s series) shares(dir string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s stages, share of the traced call (%.1f ms):", dir, s.med(dir+"/root"))
	for _, name := range stageOrder {
		fmt.Fprintf(&b, " %s %.1f%%", name, 100*s.med(dir+"/"+name)/s.med(dir+"/root"))
	}
	return b.String()
}

// payloadOf is the engine's part of a stream: what sits between the
// container header, which scdc.Inspect measures, and the 4-byte CRC32C footer.
func payloadOf(stream []byte) ([]byte, error) {
	info, err := scdc.Inspect(stream)
	if err != nil {
		return nil, err
	}
	end := len(stream) - 4
	return stream[end-info.PayloadBytes : end], nil
}

// tracedRun is the traced phase of one run: its spans, its samples and the
// counts read off the product's reports.
type tracedRun struct {
	fx      *fixture
	payload []byte // the reference QP stream without container header and footer
	tr      *tracer
	o       *ops
	ms      series
	round   int         // next round id
	report  *obs.Report // the last traced compress
	counts  map[string]float64
}

// call times fn, after a collection, as a driver span under parent and counts
// it as an operation.
func (t *tracedRun) call(name string, parent int, fn func() error) (id int, sec float64, err error) {
	runtime.GC()
	id = t.tr.begin(name, parent, t.round)
	err = fn()
	sec = t.tr.end(id)
	t.o.check(err == nil, "%s %s: %v", t.fx.w.Name, name, err)
	if err != nil {
		err = fmt.Errorf("%s %s: %w", t.fx.w.Name, name, err)
	}
	return id, sec, err
}

// traced runs the traced phase on the fixture: traced rounds through the
// public API, the same layers timed from here on the workload's real
// intermediates, and the two-worker section. un is the untraced phase of the
// same run. It returns the per-layer metrics and prints the stage shares.
func (fx *fixture) traced(seconds float64, minRounds int, un *samples, tr *tracer, o *ops, out io.Writer) (map[string]float64, error) {
	payload, err := payloadOf(fx.stream[0])
	if err != nil {
		return nil, fmt.Errorf("%s reference stream: %w", fx.w.Name, err)
	}
	t := &tracedRun{fx: fx, payload: payload, tr: tr, o: o, ms: series{}, counts: map[string]float64{}}
	start := time.Now()
	for t.round < minRounds || time.Since(start).Seconds() < seconds {
		if err := t.tracedRound(); err != nil {
			return nil, err
		}
	}
	if err := t.layers(); err != nil {
		return nil, err
	}
	if err := t.parallel(); err != nil {
		return nil, err
	}
	fmt.Fprintln(out, t.ms.shares("compress"))
	fmt.Fprintln(out, t.ms.shares("decompress"))
	return t.metrics(un), nil
}

// tracedRound is one round of the traced phase: the QP compress and
// decompress with the product's telemetry on, then the same two calls
// untraced, through the facade and straight into the engine.
func (t *tracedRun) tracedRound() error {
	fx, w, f, ms := t.fx, t.fx.w, t.fx.field, t.ms
	dims := f.Dims()
	root := t.tr.begin("round", -1, t.round)

	var stream []byte
	var cst *scdc.CompressStats
	id, sec, err := t.call("scdc.CompressWithStats", root, func() (e error) {
		stream, cst, e = scdc.CompressWithStats(f.Data, dims, fx.opts[0])
		return e
	})
	if err != nil {
		return err
	}
	t.o.check(bytes.Equal(stream, fx.stream[0]), "%s: traced stream differs from the reference stream", w.Name)
	t.tr.addReport(cst.Report, id)
	t.report = cst.Report
	ms.add("traced_compress", sec)
	ms.addStages("compress", cst.Report)

	var res *scdc.Result
	id, sec, err = t.call("scdc.DecompressObserved", root, func() (e error) {
		res, e = scdc.DecompressObserved(fx.stream[0], 1)
		return e
	})
	if err != nil {
		return err
	}
	t.o.check(sameBits(res.Data, fx.recon), "%s: traced reconstruction differs from the reference", w.Name)
	t.tr.addReport(res.Stats.Report, id)
	ms.add("traced_decompress", sec)
	ms.addStages("decompress", res.Stats.Report)

	// The facade is what scdc adds around the engine: bound resolution, the
	// grid wrapper, the header and the CRC. Paired calls in one round see the
	// same host, so their difference is steadier than either; which of the
	// pair goes first alternates, because the second call finds the heap the
	// first one left.
	var direct []byte
	var recon []float64
	pairs := []struct {
		dir            string
		names          [2]string
		facade, engine func() error
	}{
		{"compress", [2]string{"scdc.Compress", "engine.Compress"},
			func() error { _, e := scdc.Compress(f.Data, dims, fx.opts[0]); return e },
			func() (e error) { direct, e = w.engineCompress(f, fx.bound, nil); return e }},
		{"decompress", [2]string{"scdc.Decompress", "engine.Decompress"},
			func() error { _, e := scdc.Decompress(fx.stream[0]); return e },
			func() error {
				g, e := w.engineDecompress(t.payload, dims)
				if e == nil {
					recon = g.Data
				}
				return e
			}},
	}
	for _, p := range pairs {
		fns := [2]func() error{p.facade, p.engine}
		var sec [2]float64
		for i := 0; i < 2; i++ {
			k := (i + t.round) % 2
			if _, sec[k], err = t.call(p.names[k], root, fns[k]); err != nil {
				return err
			}
		}
		ms.add("untraced_"+p.dir, sec[0])
		ms.add("scdc.facade_"+p.dir+"_ms", (sec[0]-sec[1])*1e3)
	}
	t.o.check(bytes.Equal(direct, t.payload), "%s: engine payload differs from the container's", w.Name)
	t.o.check(sameBits(recon, fx.recon), "%s: engine reconstruction differs from the reference", w.Name)

	t.tr.end(root)
	t.round++
	return nil
}

// layers times the entropy, Huffman, rice and lossless packages from here,
// on the workload's real intermediates: the index arrays before and after QP
// from the engine's Trace hook, and the lossless stage's plaintext peeled off
// the reference stream.
func (t *tracedRun) layers() error {
	fx, w := t.fx, t.fx.w
	var it sz3.Trace
	if _, err := w.engineCompress(fx.field, fx.bound, &it); err != nil {
		return fmt.Errorf("%s trace capture: %w", w.Name, err)
	}
	plain, err := core.DecompressLossless(t.payload, lossless.PayloadLimit(fx.field.Len()), 1, nil)
	if err != nil {
		return fmt.Errorf("%s peel lossless: %w", w.Name, err)
	}
	q, qp := it.Q, it.QP
	if len(qp) == 0 {
		qp = nil // the engine did not run QP (Lorenzo fallback)
	}
	_, kept := core.ChooseEncodingCoder(q, qp, entropy.CoderHuffman, 1, 1, nil)
	win := q // the array the stream carries
	if kept {
		win = qp
		t.counts["core.qp_compensated"] = float64(it.Compensated)
	}
	t.counts["entropy.bits_per_value_q"] = entropy.Analyze(q).EntropyBits()
	t.counts["entropy.bits_per_value_qp"] = t.counts["entropy.bits_per_value_q"]
	if qp != nil {
		t.counts["entropy.bits_per_value_qp"] = entropy.Analyze(qp).EntropyBits()
	}

	var d *entropy.Dist
	var huff, riced, flated, back, auto []byte
	var symsH, symsR []int32
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core.choose_encoding", func() error {
			core.ChooseEncodingCoder(q, qp, entropy.CoderHuffman, 1, 1, nil)
			return nil
		}},
		{"entropy.analyze", func() error { d = entropy.Analyze(win); return nil }},
		{"huffman.encode", func() error { huff = huffman.EncodeDist(win, d); return nil }},
		{"huffman.decode", func() (e error) { symsH, e = huffman.Decode(huff); return e }},
		{"rice.encode", func() error { riced = rice.EncodeDist(win, d); return nil }},
		{"rice.decode", func() (e error) { symsR, e = rice.Decode(riced); return e }},
		{"lossless.compress", func() (e error) { flated, e = lossless.Compress(lossless.Flate, plain); return e }},
		{"lossless.decompress", func() (e error) { back, e = lossless.Decompress(flated); return e }},
		{"lossless.auto_compress", func() (e error) { auto, e = lossless.CompressSharded(lossless.Auto, plain, 1); return e }},
	}
	for rep := 0; rep < layerReps; rep++ {
		root := t.tr.begin("layers", -1, t.round)
		for _, st := range steps {
			_, sec, err := t.call(st.name, root, st.fn)
			if err != nil {
				return err
			}
			t.ms.add(st.name+"_ms", sec*1e3)
		}
		t.tr.end(root)
		t.round++
	}
	// What was timed here is what the stream carries.
	t.o.check(bytes.Contains(plain, huff), "%s: stream does not carry the Huffman bytes timed here", w.Name)
	t.o.check(slices.Equal(symsH, win), "%s: Huffman round trip changed the indices", w.Name)
	t.o.check(slices.Equal(symsR, win), "%s: rice round trip changed the indices", w.Name)
	t.o.check(bytes.Equal(flated, t.payload), "%s: lossless.Compress output differs from the payload", w.Name)
	t.o.check(bytes.Equal(back, plain), "%s: lossless round trip changed the bytes", w.Name)

	t.counts["huffman.bytes_out"] = float64(len(huff))
	t.counts["huffman.symbols_distinct"] = float64(d.Distinct())
	t.counts["rice.bytes_out"] = float64(len(riced))
	t.counts["lossless.bytes_in"] = float64(len(plain))
	t.counts["lossless.bytes_out"] = float64(len(flated))
	t.counts["lossless.auto_bytes_out"] = float64(len(auto))
	return nil
}

// parallel is the only section that leaves GOMAXPROCS=1: it checks that two
// workers produce the same bytes as one, at Shards 1 and 2, and times the
// pair. With one CPU online the speed-ups are measured all the same but mean
// nothing; parallel.procs says which case a run was.
func (t *tracedRun) parallel() error {
	fx, w, f := t.fx, t.fx.w, t.fx.field
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	identical := 1.0
	same := func(ok bool, format string, args ...any) {
		t.o.check(ok, format, args...)
		if !ok {
			identical = 0
		}
	}
	compress := func(parent, workers, shards int) (out []byte, err error) {
		opts := fx.opts[0]
		opts.Workers, opts.Shards = workers, shards
		_, sec, err := t.call(fmt.Sprintf("scdc.Compress[w%d s%d]", workers, shards), parent, func() (e error) {
			out, e = scdc.Compress(f.Data, f.Dims(), opts)
			return e
		})
		t.ms.add(fmt.Sprintf("compress_w%d_s%d", workers, shards), sec)
		return out, err
	}
	decompress := func(parent, workers, shards int, stream []byte) error {
		var res *scdc.Result
		_, sec, err := t.call(fmt.Sprintf("scdc.DecompressParallel[w%d s%d]", workers, shards), parent, func() (e error) {
			res, e = scdc.DecompressParallel(stream, workers)
			return e
		})
		if err != nil {
			return err
		}
		t.ms.add(fmt.Sprintf("decompress_w%d_s%d", workers, shards), sec)
		same(sameBits(res.Data, fx.recon), "%s: workers=%d shards=%d reconstruction differs from the sequential one", w.Name, workers, shards)
		return nil
	}

	for rep := 0; rep < parallelReps; rep++ {
		root := t.tr.begin("parallel", -1, t.round)
		one, err := compress(root, 1, 2)
		if err != nil {
			return err
		}
		two, err := compress(root, 2, 2)
		if err != nil {
			return err
		}
		same(bytes.Equal(one, two), "%s: Workers=2 stream differs from Workers=1 at Shards=2", w.Name)
		for workers := 1; workers <= 2; workers++ {
			if err := decompress(root, workers, 2, one); err != nil {
				return err
			}
		}
		if rep == 0 {
			// Shards=1 is the reference stream's format.
			two, err := compress(root, 2, 1)
			if err != nil {
				return err
			}
			same(bytes.Equal(two, fx.stream[0]), "%s: Workers=2 stream differs from Workers=1 at Shards=1", w.Name)
			if err := decompress(root, 2, 1, fx.stream[0]); err != nil {
				return err
			}
		}
		t.tr.end(root)
		t.round++
	}
	t.counts["parallel.compress_w2_speedup"] = t.ms.med("compress_w1_s2") / t.ms.med("compress_w2_s2")
	t.counts["parallel.decompress_w2_speedup"] = t.ms.med("decompress_w1_s2") / t.ms.med("decompress_w2_s2")
	t.counts["parallel.streams_identical"] = identical
	t.counts["parallel.procs"] = float64(procs)
	return nil
}

// metrics assembles the per-layer metrics from the traced run and the
// untraced phase un of the same run.
func (t *tracedRun) metrics(un *samples) map[string]float64 {
	fx, ms := t.fx, t.ms
	cq, cb := quantile(un.norm[opCompressQP], 0.25), quantile(un.norm[opCompressBase], 0.25)
	dq, db := quantile(un.norm[opDecompressQP], 0.25), quantile(un.norm[opDecompressBase], 0.25)
	huff := t.report.Find("huffman")
	est, act := float64(huff.Counters["est_bits_out"]), float64(huff.Counters["act_bits_out"])

	m := map[string]float64{
		"scdc.compress_qp_ms_p50":   1e3 * median(un.sec[opCompressQP]),
		"scdc.compress_qp_ms_p90":   1e3 * quantile(un.sec[opCompressQP], 0.9),
		"scdc.decompress_qp_ms_p50": 1e3 * median(un.sec[opDecompressQP]),
		"scdc.decompress_qp_ms_p90": 1e3 * quantile(un.sec[opDecompressQP], 0.9),
		// Traced against untraced calls of the same rounds, at p25 like the
		// gated throughput.
		"scdc.trace_overhead_pct": 100 * ((ms.p25("traced_compress")+ms.p25("traced_decompress"))/
			(ms.p25("untraced_compress")+ms.p25("untraced_decompress")) - 1),
		"scdc.unattributed_compress_ms":   ms.med("compress/unattributed"),
		"scdc.unattributed_decompress_ms": ms.med("decompress/unattributed"),

		"engine.choose_ms":     ms.med("compress/choose"),
		"engine.interp_ms":     ms.med("compress/interp"),
		"engine.interp_dec_ms": ms.med("decompress/interp"),

		"core.qp_fwd_ms":              ms.med("compress/qp"),
		"core.qp_inv_ms":              ms.med("decompress/qp"),
		"core.qp_kept":                float64(huff.Counters["qp_kept"]),
		"core.qp_compensated":         0, // unless QP was kept, see counts
		"core.qp_ratio_gain_pct":      100 * (float64(len(fx.stream[1]))/float64(len(fx.stream[0])) - 1),
		"core.qp_compress_cost_pct":   100 * (1 - cb/cq),
		"core.qp_decompress_cost_pct": 100 * (1 - db/dq),

		"quantizer.points":        float64(t.report.Counter("quantize", "points")),
		"quantizer.unpredictable": float64(t.report.Counter("quantize", "unpredictable")),

		"entropy.est_error_pct": 100 * (act - est) / act,

		"datagen.generate_s": fx.genSec,

		"bench.calib_MBps":    fx.calibMBps(un),
		"bench.round_iqr_pct": 100 * (quantile(un.sec[opCompressQP], 0.75) - quantile(un.sec[opCompressQP], 0.25)) / median(un.sec[opCompressQP]),
		"bench.rounds":        float64(un.rounds()),
		"bench.gomaxprocs":    float64(runtime.GOMAXPROCS(0)),
	}
	for _, name := range []string{
		"scdc.facade_compress_ms", "scdc.facade_decompress_ms", "core.choose_encoding_ms",
		"entropy.analyze_ms", "huffman.encode_ms", "huffman.decode_ms", "rice.encode_ms", "rice.decode_ms",
		"lossless.compress_ms", "lossless.decompress_ms", "lossless.auto_compress_ms",
	} {
		m[name] = ms.med(name)
	}
	for name, v := range t.counts {
		m[name] = v
	}
	return m
}
