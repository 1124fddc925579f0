package main

// metricDef is one row of BENCHMARK.json: the driver emits exactly these
// names and units (TestBenchmarkJSONMatchesDriver holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, the same ten on every workload. Bound is
// the share of the parent's median by which a metric may worsen.
var endToEnd = []metricDef{
	{"compress_qp_MBps", "MB/s", "higher", 0.25},
	{"compress_base_MBps", "MB/s", "higher", 0.25},
	{"decompress_qp_MBps", "MB/s", "higher", 0.25},
	{"decompress_base_MBps", "MB/s", "higher", 0.25},
	{"ratio_qp", "x", "higher", 0.05},
	{"ratio_base", "x", "higher", 0.05},
	{"psnr_db", "dB", "higher", 0.01},
	{"compress_qp_alloc_MB", "MB", "lower", 0.10},
	{"decompress_qp_alloc_MB", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the tracked, unbounded metrics of the traced run, named
// <package>.<what>. "engine" is the workload's engine package (sz3, qoz,
// hpez or mgard): one name set has to serve all four workloads.
var perLayer = []metricDef{
	{Name: "scdc.compress_qp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scdc.compress_qp_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "scdc.decompress_qp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scdc.decompress_qp_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "scdc.facade_compress_ms", Unit: "ms", Better: "lower"},
	{Name: "scdc.facade_decompress_ms", Unit: "ms", Better: "lower"},
	{Name: "scdc.unattributed_compress_ms", Unit: "ms", Better: "lower"},
	{Name: "scdc.unattributed_decompress_ms", Unit: "ms", Better: "lower"},
	{Name: "scdc.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "engine.choose_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.interp_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.interp_dec_ms", Unit: "ms", Better: "lower"},

	{Name: "core.qp_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "core.qp_inv_ms", Unit: "ms", Better: "lower"},
	{Name: "core.qp_kept", Unit: "count", Better: "higher"},
	{Name: "core.qp_compensated", Unit: "count", Better: "higher"},
	{Name: "core.choose_encoding_ms", Unit: "ms", Better: "lower"},
	{Name: "core.qp_ratio_gain_pct", Unit: "%", Better: "higher"},
	{Name: "core.qp_compress_cost_pct", Unit: "%", Better: "lower"},
	{Name: "core.qp_decompress_cost_pct", Unit: "%", Better: "lower"},

	{Name: "quantizer.points", Unit: "count", Better: "higher"},
	{Name: "quantizer.unpredictable", Unit: "count", Better: "lower"},

	{Name: "entropy.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "entropy.bits_per_value_q", Unit: "bit", Better: "lower"},
	{Name: "entropy.bits_per_value_qp", Unit: "bit", Better: "lower"},
	{Name: "entropy.est_error_pct", Unit: "%", Better: "lower"},

	{Name: "huffman.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "huffman.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "huffman.bytes_out", Unit: "B", Better: "lower"},
	{Name: "huffman.symbols_distinct", Unit: "count", Better: "lower"},

	{Name: "rice.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "rice.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "rice.bytes_out", Unit: "B", Better: "lower"},

	{Name: "lossless.compress_ms", Unit: "ms", Better: "lower"},
	{Name: "lossless.decompress_ms", Unit: "ms", Better: "lower"},
	{Name: "lossless.bytes_in", Unit: "B", Better: "lower"},
	{Name: "lossless.bytes_out", Unit: "B", Better: "lower"},
	{Name: "lossless.auto_compress_ms", Unit: "ms", Better: "lower"},
	{Name: "lossless.auto_bytes_out", Unit: "B", Better: "lower"},

	{Name: "parallel.compress_w2_speedup", Unit: "x", Better: "higher"},
	{Name: "parallel.decompress_w2_speedup", Unit: "x", Better: "higher"},
	{Name: "parallel.streams_identical", Unit: "count", Better: "higher"},
	{Name: "parallel.procs", Unit: "count", Better: "higher"},

	{Name: "datagen.generate_s", Unit: "s", Better: "lower"},

	{Name: "bench.calib_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "bench.round_iqr_pct", Unit: "%", Better: "lower"},
	{Name: "bench.rounds", Unit: "count", Better: "higher"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
