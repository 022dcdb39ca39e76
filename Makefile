# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO  ?= go
BIN := bin

.PHONY: all build test race lint lint-escape lint-escape-baseline bench-smoke bench-alloc bench-host ckpt-e2e serve-e2e clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

$(BIN)/grapelint: $(wildcard cmd/grapelint/*.go) $(wildcard internal/lint/*.go)
	$(GO) build -o $@ ./cmd/grapelint

# lint runs the domain-invariant analyzer suite (DESIGN.md §10, §15)
# both standalone (with stale-suppression detection) and through the go
# vet driver, so the vettool protocol stays exercised.
lint: $(BIN)/grapelint
	$(BIN)/grapelint -unused-ignores ./...
	$(GO) vet -vettool=$(abspath $(BIN)/grapelint) ./...

# lint-escape compares the compiler's escape-analysis inventory
# (-gcflags=-m) for the hot packages against the committed baseline, so
# a change that silently moves an arena allocation to the heap fails
# before the allocation gates do. Rebuild the baseline with
# lint-escape-baseline after an intentional change.
lint-escape: $(BIN)/grapelint
	$(BIN)/grapelint -escapes

lint-escape-baseline: $(BIN)/grapelint
	$(BIN)/grapelint -escapes -write

# bench-smoke mirrors the CI bench job: a small sweep plus schema
# validation of the fresh and committed bench records.
bench-smoke:
	$(GO) run ./cmd/bench -smoke -boards 1,2 -out /tmp/bench-smoke.json
	$(GO) run ./cmd/bench -validate /tmp/bench-smoke.json
	$(GO) run ./cmd/bench -validate BENCH_treecode.json

# bench-alloc gates the arena step pipeline (DESIGN.md §11): the
# steady-state allocation budget and the parallel-build conformance
# property, both at GOMAXPROCS=1 and GOMAXPROCS=4 so scheduler width
# cannot mask a regression.
bench-alloc:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestStepAllocs|TestBuildSteadyStateAllocs' . ./internal/octree
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestStepAllocs|TestBuildSteadyStateAllocs' . ./internal/octree
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestBuildParallelMatchesSerial|TestBuilderReuseMatchesFresh' ./internal/octree
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestBuildParallelMatchesSerial|TestBuilderReuseMatchesFresh' ./internal/octree

# bench-host gates the batched SoA host kernels (DESIGN.md §13): the
# scalar-vs-soa sub-benchmarks are sampled 10x and compared with
# Welch's t-test by cmd/benchdiff — fail on a statistically significant
# soa regression, and require the batched MAC to hold its >=1.3x win.
# benchdiff is built BEFORE the benchmark runs and the samples staged
# through a file: piping into `go run` would compile the tool
# concurrently with the benchmark and perturb the early samples on
# small machines. The emulator kernel benchmarks then run once each:
# go test builds benchmarks but never runs them, so this catches one
# that fails at run time.
bench-host: $(BIN)/benchdiff
	$(GO) test -run '^$$' -bench 'MACBatch|HostP2P|GuardCheck' -count=10 ./internal/hostk > $(BIN)/bench-host.txt
	$(BIN)/benchdiff -require MACBatch -factor 1.3 < $(BIN)/bench-host.txt
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/g5

$(BIN)/benchdiff: $(wildcard cmd/benchdiff/*.go)
	$(GO) build -o $@ ./cmd/benchdiff

# ckpt-e2e gates the crash-safe checkpoint/restart layer (DESIGN.md
# §12): kill/resume bitwise-identity, torn-checkpoint fallback, graceful
# SIGINT and the supervised crash loop — through the real binaries,
# under the race detector — plus the checkpoint reader's corruption
# guarantees at the unit level.
ckpt-e2e:
	$(GO) test -count=1 -race -run 'TestE2E' ./cmd/grape5sim ./cmd/simrun
	$(GO) test -count=1 -run 'TestEveryBitFlipDetected|TestEveryTruncationDetected|TestLatestValid' ./internal/ckpt

# serve-e2e gates the multi-tenant job server (DESIGN.md §14): fair
# completion order, explicit 429 backpressure, bitwise result identity
# vs standalone runs, the SSE/cancellation soak with its goroutine-leak
# budget — all under the race detector — plus the daemon-level
# SIGKILL/restart resume through the real simd binary, and the wire
# schema and validator tests.
serve-e2e:
	$(GO) test -count=1 -race -run 'TestE2E|TestSoak' ./internal/serve ./cmd/simd
	$(GO) test -count=1 -run 'TestDecodeJobRequest|SchemaGolden' ./internal/serve

clean:
	rm -rf $(BIN)
