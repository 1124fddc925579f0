package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"scdc/internal/obs"
)

// span is one record of the trace file. Spans with Source "bench" are timed
// by this driver around a call into a layer. Spans with Source "product" come
// from the span tree the public API returns, which reports durations but no
// start times: they are anchored at their parent's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the root span of a round
	Round   int    `json:"round"`  // shared by all spans of one round
	Name    string `json:"name"`
	Source  string `json:"source"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a driver-timed span and returns its id.
func (t *tracer) begin(name string, parent, round int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: round, Name: name, Source: "bench", StartNS: int64(time.Since(t.epoch))})
	return id
}

// end closes a span opened by begin and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.epoch))
	return float64(s.EndNS-s.StartNS) / 1e9
}

// addReport records the product's span tree under the driver span parent.
func (t *tracer) addReport(rep *obs.Report, parent int) {
	if rep == nil {
		return
	}
	p := t.spans[parent]
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: p.Round, Name: rep.Name, Source: "product", StartNS: p.StartNS, EndNS: p.StartNS + rep.NS})
	for _, c := range rep.Children {
		t.addReport(c, id)
	}
}

// traceFile is the layout of the JSON written when a traced run ends.
type traceFile struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	buf, err := json.Marshal(traceFile{Schema: "scdc-bench-trace/1", Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}

// selfNS is a span's duration minus the sum of its direct children's: the
// time the product attributes to no stage. It is signed, because stage spans
// can overlap (the accumulating qp span runs inside interp on HPEZ and MGARD).
func selfNS(rep *obs.Report) int64 {
	ns := rep.NS
	for _, c := range rep.Children {
		ns -= c.NS
	}
	return ns
}
