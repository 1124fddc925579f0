# Build, test and benchmark entry points.
#
# `make check` is the tier-1 gate: full build + tests, go vet, the
# project static-analysis suite (scdclint + gofmt), a -race pass over
# every package, and a short fuzz pass over every decoder-facing fuzz
# target.
# `make bench` snapshots the hot-path benchmarks into
# results/BENCH_pr1.json (before-numbers are the recorded seed baseline)
# and the per-stage telemetry snapshot into results/BENCH_pr3.json
# (`make bench-pr3` runs just the latter).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet lint lint-fixtures lint-gc race check gate bench bench-pr3 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 fuzz-smoke cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (DESIGN.md §10): scdclint's seven analyzers
# over the codec packages, plus a gofmt cleanliness check.
lint:
	$(GO) run ./cmd/scdclint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
	    echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Self-test guard: every analyzer must report at least one diagnostic on
# its own positive fixtures, so a silently broken analyzer fails the
# build instead of quietly passing everything.
lint-fixtures:
	$(GO) run ./cmd/scdclint -fixtures

# Compiler-diagnostic gate (DESIGN.md §15): every //scdc:inline,
# //scdc:noalloc and //scdc:nobounds directive in the hot packages is
# checked against the compiler's real -m=2 / check_bce output. The gate
# pins the diagnostic grammar to go1.22–go1.24; on any other toolchain
# scdcgc prints a skip notice and exits 0 rather than guessing at
# unverified wording.
lint-gc:
	$(GO) run ./cmd/scdcgc

race:
	$(GO) test -race ./...

# go test -fuzz accepts only one target per invocation, so each gets its
# own short run. Any crasher fails the make.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzDecompress$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz '^FuzzDecompressChunked$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz '^FuzzHuffmanDecode$$' -fuzztime $(FUZZTIME) ./internal/huffman/
	$(GO) test -run xxx -fuzz '^FuzzHuffmanRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/huffman/
	$(GO) test -run xxx -fuzz '^FuzzRice$$' -fuzztime $(FUZZTIME) ./internal/rice/
	$(GO) test -run xxx -fuzz '^FuzzRangeCoderDecode$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzLosslessDecompress$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzLosslessSharded$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzBitReader$$' -fuzztime $(FUZZTIME) ./internal/bitstream/
	$(GO) test -run xxx -fuzz '^FuzzBitWriterReader$$' -fuzztime $(FUZZTIME) ./internal/bitstream/
	$(GO) test -run xxx -fuzz '^FuzzQuantizerRecover$$' -fuzztime $(FUZZTIME) ./internal/quantizer/
	$(GO) test -run xxx -fuzz '^FuzzQPKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz '^FuzzInterpKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/sz3/
	$(GO) test -run xxx -fuzz '^FuzzLatticeKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/hpez/
	$(GO) test -run xxx -fuzz '^FuzzLatticeKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/mgard/

# Interpolation-kernel snapshot: the same observed compression as
# bench-pr6 (so the interp stage is an apples-to-apples before/after
# against the PR 6 baseline in results/BENCH_pr6.json) plus the
# sz3-layer kernel benchmarks isolating the fused forward/inverse line
# sweeps (reference walker vs kernels, linear and cubic).
bench-pr7:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr7.scdc -stats -statsout results/bench_pr7.stats.json \
	    | tee results/bench_pr7_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkInterpKernels' -benchtime 20x ./internal/sz3/ \
	    | tee -a results/bench_pr7_raw.txt
	sh scripts/bench_json_pr7.sh results/bench_pr7.stats.json results/bench_pr7_raw.txt \
	    results/BENCH_pr6.json > results/BENCH_pr7.json
	@rm -f results/bench_pr7.scdc
	@echo wrote results/BENCH_pr7.json

# Telemetry-aggregation snapshot: the same observed compression as
# bench-pr7 (so every stage is an apples-to-apples before/after against
# results/BENCH_pr7.json — the comparison `make gate` performs), the
# registry on/off overhead benchmark, the registry Publish/scrape
# microbenchmarks, the 1/8/64-stream load-generator rows, and the
# AllocsPerRun zero-allocation guard for the disabled path.
bench-pr8:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr8.scdc -stats -statsout results/bench_pr8.stats.json \
	    | tee results/bench_pr8_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkMetricsOverhead' -benchtime 5x . \
	    | tee -a results/bench_pr8_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkRegistry' -benchtime 100x ./internal/obs/agg/ \
	    | tee -a results/bench_pr8_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkTransferStreams' -benchtime 3x ./internal/transfer/ \
	    | tee -a results/bench_pr8_raw.txt
	$(GO) test -run 'TestNilMetricsCompressZeroAllocs|TestNilRegistryZeroAllocs' -count=1 -v \
	    . ./internal/obs/agg/ | tee -a results/bench_pr8_raw.txt
	sh scripts/bench_json_pr8.sh results/bench_pr8.stats.json results/bench_pr8_raw.txt \
	    > results/BENCH_pr8.json
	@rm -f results/bench_pr8.scdc
	@echo wrote results/BENCH_pr8.json

# Performance-invariant snapshot: the same observed compression as
# bench-pr8 (so every stage is an apples-to-apples before/after against
# results/BENCH_pr8.json — the comparison `make gate` performs) plus the
# entropy-coder rows measured twice: once as built (the BCE-clean
# kernels after this PR's fixes) and once with the SSA prove pass
# disabled, which is the compiler's closest stand-in for the
# pre-directive state where every hot-loop load and store carried its
# bounds check.
bench-pr9:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr9.scdc -stats -statsout results/bench_pr9.stats.json \
	    | tee results/bench_pr9_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkEntropyCoders' -benchtime 20x . \
	    | tee -a results/bench_pr9_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkEntropyCoders' -benchtime 20x \
	    -gcflags 'all=-d=ssa/prove/off' . \
	    | sed 's/^BenchmarkEntropyCoders/BenchmarkProveOffEntropyCoders/' \
	    | tee -a results/bench_pr9_raw.txt
	sh scripts/bench_json_pr9.sh results/bench_pr9.stats.json results/bench_pr9_raw.txt \
	    > results/BENCH_pr9.json
	@rm -f results/bench_pr9.scdc
	@echo wrote results/BENCH_pr9.json

# Lossless back-end snapshot: the same dataset and error bound as
# bench-pr9 but with `-lossless auto`, so the pipeline rows show the
# auto-selected back-end against the PR 9 flate baseline (the comparison
# `make gate` performs — the pick trades <1% ratio for a multi-x faster
# lossless stage), plus the per-codec BenchmarkLosslessCodecs rows that
# feed the lossless_bench ledger section benchgate gates from this
# snapshot on.
bench-pr10:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp -lossless auto \
	    -out results/bench_pr10.scdc -stats -statsout results/bench_pr10.stats.json \
	    | tee results/bench_pr10_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkLosslessCodecs' -benchtime 20x ./internal/lossless/ \
	    | tee -a results/bench_pr10_raw.txt
	sh scripts/bench_json_pr10.sh results/bench_pr10.stats.json results/bench_pr10_raw.txt \
	    > results/BENCH_pr10.json
	@rm -f results/bench_pr10.scdc
	@echo wrote results/BENCH_pr10.json

cover:
	$(GO) test -cover ./...

# Bench-regression gate (DESIGN.md §14): compares the newest
# results/BENCH_pr<N>.json snapshot against the previous one and fails
# on a gross per-stage slowdown or a compression-ratio drop.
gate:
	$(GO) run ./cmd/benchgate -dir results

check: build test vet lint lint-fixtures lint-gc race fuzz-smoke gate

bench: bench-pr3 bench-pr5
	@mkdir -p results
	$(GO) test -run xxx -bench 'BenchmarkHotPath' -benchtime 5x . | tee results/bench_hotpath_raw.txt
	sh scripts/bench_json.sh results/bench_hotpath_raw.txt > results/BENCH_pr1.json
	@echo wrote results/BENCH_pr1.json

# Per-stage telemetry snapshot: one observed compression (all five
# pipeline stages), the observer on/off overhead benchmark, and the
# AllocsPerRun zero-allocation guard for the disabled path.
bench-pr3:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr3.scdc -stats -statsout results/bench_pr3.stats.json \
	    | tee results/bench_pr3_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkObserverOverhead' -benchtime 5x . \
	    | tee -a results/bench_pr3_raw.txt
	$(GO) test -run 'TestNilFastPathZeroAllocs' -count=1 -v ./internal/obs/ \
	    | tee -a results/bench_pr3_raw.txt
	sh scripts/bench_json_pr3.sh results/bench_pr3.stats.json results/bench_pr3_raw.txt \
	    > results/BENCH_pr3.json
	@rm -f results/bench_pr3.scdc
	@echo wrote results/BENCH_pr3.json

# Kernelized-QP snapshot: the same observed compression as bench-pr3 (so
# the qp stage is an apples-to-apples before/after against the PR 3
# baseline in results/BENCH_pr3.json) plus the core-layer kernel
# benchmarks isolating forward/inverse sweeps from the pipeline.
bench-pr5:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr5.scdc -stats -statsout results/bench_pr5.stats.json \
	    | tee results/bench_pr5_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkQPKernels' -benchtime 20x . \
	    | tee -a results/bench_pr5_raw.txt
	sh scripts/bench_json_pr5.sh results/bench_pr5.stats.json results/bench_pr5_raw.txt \
	    results/BENCH_pr3.json > results/BENCH_pr5.json
	@rm -f results/bench_pr5.scdc
	@echo wrote results/BENCH_pr5.json

# Entropy-stage snapshot: the same observed compression as bench-pr5 (so
# the huffman stage is an apples-to-apples before/after against the PR 5
# baseline in results/BENCH_pr5.json) plus the per-coder encode/decode
# benchmarks (legacy Huffman kernel vs Golomb-Rice) and the sharded
# Huffman worker-scaling rows.
bench-pr6:
	@mkdir -p results
	$(GO) run ./cmd/scdc -z -dataset Miranda -rel 1e-3 -alg SZ3 -qp \
	    -out results/bench_pr6.scdc -stats -statsout results/bench_pr6.stats.json \
	    | tee results/bench_pr6_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkEntropyCoders|BenchmarkHotPathShardedHuffman' \
	    -benchtime 20x . | tee -a results/bench_pr6_raw.txt
	sh scripts/bench_json_pr6.sh results/bench_pr6.stats.json results/bench_pr6_raw.txt \
	    results/BENCH_pr5.json > results/BENCH_pr6.json
	@rm -f results/bench_pr6.scdc
	@echo wrote results/BENCH_pr6.json
