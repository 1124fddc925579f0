# Build, test and benchmark entry points.
#
# `make check` is the tier-1 gate: full build + tests, go vet, the
# static gate (scdclint: seven analyzers and the compiler-diagnostic
# gate, plus gofmt), a -race pass over every package, a short fuzz pass
# over every decoder-facing fuzz target, one iteration of every
# benchmark, and a vet + test pass over the benchmark module. `make
# test` alone already enforces scdclint's whole gate
# (cmd/scdclint's TestLintModuleClean) and re-encodes every golden pin
# (cmd/golden's test).
# `make bench` runs the repository benchmark (benchmark/run.sh, declared
# in BENCHMARK.json); benchmark/ holds its baselines.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet lint race check bench bench-build bench-smoke fuzz-smoke cover loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The static gate (DESIGN.md §6.9 and §8): scdclint's seven analyzers
# and its compiler-diagnostic step over the packages of
# internal/analysis/suite, plus a gofmt cleanliness check. The compiler
# step pins its diagnostic grammar to go1.22–go1.24; on any other
# toolchain it prints a skip notice rather than guessing at unverified
# wording.
lint:
	$(GO) run ./cmd/scdclint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
	    echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

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
	$(GO) test -run xxx -fuzz '^FuzzLosslessDecompress$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzLosslessSharded$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzInflate$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzDeflate$$' -fuzztime $(FUZZTIME) ./internal/lossless/
	$(GO) test -run xxx -fuzz '^FuzzBitReader$$' -fuzztime $(FUZZTIME) ./internal/bitstream/
	$(GO) test -run xxx -fuzz '^FuzzBitWriterReader$$' -fuzztime $(FUZZTIME) ./internal/bitstream/
	$(GO) test -run xxx -fuzz '^FuzzQuantizerRecover$$' -fuzztime $(FUZZTIME) ./internal/quantizer/
	$(GO) test -run xxx -fuzz '^FuzzRoundIndex$$' -fuzztime $(FUZZTIME) ./internal/quantizer/
	$(GO) test -run xxx -fuzz '^FuzzQPKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz '^FuzzInterpKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/sz3/
	$(GO) test -run xxx -fuzz '^FuzzLatticeKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/hpez/
	$(GO) test -run xxx -fuzz '^FuzzLatticeKernelDifferential$$' -fuzztime $(FUZZTIME) ./internal/mgard/

# One iteration of every Benchmark* in the module, so a benchmark broken
# by a signature change or a runaway loop fails the gate rather than the
# next measurement.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

cover:
	$(GO) test -cover ./...

# benchmark/ is a module of its own that `go build ./...` does not reach:
# compile and test it against this checkout, so a signature change that
# breaks its imports fails here rather than when the benchmark next runs.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

check: build test vet lint race fuzz-smoke bench-smoke bench-build

# One harness: end-to-end throughput, ratio and the per-layer trace for
# the four workloads of BENCHMARK.json (see benchmark/README.md).
bench:
	bash benchmark/run.sh

# Size counter of the CHANGES.md entries: non-test .go lines outside
# benchmark/ and testdata/, blank and comment-only lines stripped, per
# top-level package and in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs awk \
	'!/^[[:space:]]*($$|\/\/)/ { split(FILENAME, p, "/"); n[p[3] == "" ? "." : p[4] == "" ? p[2] : p[2] "/" p[3]]++; t++ } \
	END { for (k in n) printf "%6d %s\n", n[k], k | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
