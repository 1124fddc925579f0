# Build, test and benchmark entry points.
#
# `make check` is the tier-1 gate: full build + tests, go vet, the
# project static-analysis suite (scdclint + gofmt), a -race pass over
# every package, and a short fuzz pass over every decoder-facing fuzz
# target.
# `make bench` runs the repository benchmark (benchmark/run.sh, declared
# in BENCHMARK.json); results/BENCH_pr*.json are the frozen history of
# the per-PR snapshots that preceded it.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet lint lint-fixtures lint-gc race check bench fuzz-smoke cover

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

cover:
	$(GO) test -cover ./...

check: build test vet lint lint-fixtures lint-gc race fuzz-smoke

# One harness: end-to-end throughput, ratio and the per-layer trace for
# the four workloads of BENCHMARK.json (see benchmark/README.md).
bench:
	bash benchmark/run.sh
