package main

import (
	"fmt"
	"math/rand"
	"strings"

	"scdc"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/hpez"
	"scdc/internal/mgard"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
)

// workload is one benchmark cell: an engine, a synthetic dataset, the
// window a rank compresses, and a value-range-relative error bound.
type workload struct {
	Name    string
	Why     string // one line, copied into BENCHMARK.json
	Alg     scdc.Algorithm
	Dataset datagen.Dataset
	Dims    [3]int
	Rel     float64
}

// Sizes are set so that one round (four calls) takes about 0.4 s at seed
// speed, which puts at least minRounds rounds in the 15 s a run measures.
var workloads = []workload{
	{"sz3_smooth", "SZ3 on a smooth Miranda field at rel 1e-4: interp, QP, Huffman and flate each take 18-28% of compress, index stream near 1 bit/value",
		scdc.SZ3, datagen.Miranda, [3]int{112, 160, 160}, 1e-4},
	{"qoz_tuned", "QoZ on layered SegSalt at rel 1e-3: tuning trials are ~80% of compress and absent from decompress, so only a tuner change moves it",
		scdc.QoZ, datagen.SegSalt, [3]int{96, 96, 80}, 1e-3},
	{"hpez_block", "HPEZ on SCALE at rel 1e-4: block-tuned multi-dimensional interpolation dominates both directions; QP runs over lattice class regions",
		scdc.HPEZ, datagen.Scale, [3]int{49, 144, 144}, 1e-4},
	{"mgard_tight", "MGARD on S3D at rel 2e-5: wide-alphabet regime (~10 bits/value) where Huffman and the lossless back-end do most of the work",
		scdc.MGARD, datagen.S3D, [3]int{88, 88, 88}, 2e-5},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// fieldSeed fixes the simulated global field of every workload. The
	// run's seed picks the window of it that this rank compresses: every
	// window is a different input with the same statistics, so ratios and
	// timings can be compared across seeds.
	fieldSeed = 1
	// windowMargin is how far (in points, per axis) the window may sit
	// from the global field's origin.
	windowMargin = 8
)

// synthesize generates the workload's global field and cuts the seed's
// window out of it.
func (w workload) synthesize(seed int64) (*grid.Field, error) {
	global, err := w.global()
	if err != nil {
		return nil, err
	}
	return w.cut(global, w.offsets(seed, 1)[0])
}

// global generates the simulated global field that windows are cut from.
func (w workload) global() (*grid.Field, error) {
	d := w.Dims
	return datagen.Generate(w.Dataset, 0, []int{d[0] + windowMargin, d[1] + windowMargin, d[2] + windowMargin}, fieldSeed)
}

// offsets draws the origins of n windows from the seed. The first is the
// window that the run times.
func (w workload) offsets(seed int64, n int) [][3]int {
	rng := rand.New(rand.NewSource(seed))
	offs := make([][3]int, n)
	for k := range offs {
		for a := range offs[k] {
			offs[k][a] = rng.Intn(windowMargin + 1)
		}
	}
	return offs
}

// cut copies the window at off out of the global field.
func (w workload) cut(global *grid.Field, off [3]int) (*grid.Field, error) {
	d := w.Dims
	win, err := grid.New(d[0], d[1], d[2])
	if err != nil {
		return nil, err
	}
	s0, s1 := global.Stride(0), global.Stride(1)
	for i := 0; i < d[0]; i++ {
		for j := 0; j < d[1]; j++ {
			src := (i+off[0])*s0 + (j+off[1])*s1 + off[2]
			copy(win.Data[(i*d[1]+j)*d[2]:][:d[2]], global.Data[src:src+d[2]])
		}
	}
	return win, nil
}

// options are the public-API options of the workload, with or without the
// QP layer.
func (w workload) options(bound float64, qp bool) scdc.Options {
	o := scdc.Options{Algorithm: w.Alg, ErrorBound: bound}
	if qp {
		o.QP = scdc.DefaultQP()
	}
	return o
}

// engineName is the package that the per-layer "engine.*" metrics time.
func (w workload) engineName() string { return strings.ToLower(w.Alg.String()) }

// engineCompress calls the workload's engine package directly with the
// options scdc.Compress would build for it (QP on), bypassing the facade.
// tr, when non-nil, captures the index arrays.
func (w workload) engineCompress(f *grid.Field, bound float64, tr *sz3.Trace) ([]byte, error) {
	switch w.Alg {
	case scdc.SZ3:
		o := sz3.DefaultOptions(bound).WithQP()
		o.Trace = tr
		return sz3.Compress(f, o)
	case scdc.QoZ:
		o := qoz.DefaultOptions(bound).WithQP()
		o.Trace = tr
		return qoz.Compress(f, o)
	case scdc.HPEZ:
		o := hpez.DefaultOptions(bound).WithQP()
		o.Trace = tr
		return hpez.Compress(f, o)
	case scdc.MGARD:
		o := mgard.DefaultOptions(bound).WithQP()
		o.Trace = tr
		return mgard.Compress(f, o)
	}
	return nil, fmt.Errorf("workload %s: no engine for %v", w.Name, w.Alg)
}

// engineDecompress is the direct counterpart of engineCompress for a
// container payload (the stream without header and CRC footer).
func (w workload) engineDecompress(payload []byte, dims []int) (*grid.Field, error) {
	switch w.Alg {
	case scdc.SZ3:
		return sz3.Decompress(payload, dims)
	case scdc.QoZ:
		return qoz.Decompress(payload, dims)
	case scdc.HPEZ:
		return hpez.Decompress(payload, dims)
	case scdc.MGARD:
		return mgard.Decompress(payload, dims)
	}
	return nil, fmt.Errorf("workload %s: no engine for %v", w.Name, w.Alg)
}
