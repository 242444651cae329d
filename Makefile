# Build/test/bench entry points. The bench target emits Go benchfmt
# output (machine-readable; benchstat- and BENCH_*.json-tooling ready).

GO ?= go
BENCH_OUT ?= bench.out
BENCH_PATTERN ?= .
BENCH_TIME ?= 1s
FUZZ_TIME ?= 20s

# The Get-path trajectory benchmarks: single-key Get (serial + parallel,
# steady and mid-migration), batched GetBatch, and the Put baselines the
# read path is traded against, for uint64 maps and for served's
# string → []byte shape (MapSerialGet/bytes, MapSerialPut/bytes,
# CMapGetBatchBytes). CMapGet also picks up CMapGetObsOff/On (the
# instrumented-vs-bare Get pair pinning the metrics overhead) and
# ObsRecord covers the obs recording primitives themselves, so
# BENCH_get.json carries the observability cost trajectory alongside the
# read path's. Each benchmark runs six times at one CPU and
# at every CPU the machine has (more procs than CPUs would only measure
# oversubscription); cmd/benchjson folds the repeats into a median with
# its min and max, and records the CPU count.
BENCH_GET_PATTERN ?= CMapGet|MapSerialGet|MapSerialPut|CMapPutParallel|ObsRecord|ObsCounterAdd
BENCH_GET_CPUS ?= 1,$(shell nproc)
BENCH_GET_TIME ?= 0.5s
BENCH_GET_JSON ?= BENCH_get.json

.PHONY: all build vet lint lint-gate test race check bench bench-json bench-smoke bench-module fuzz-smoke serve-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static invariant gate: gofmt, then the seven reprolint analyzers
# (seqatomic, noalloc, unsafeview, digestflow, fsyncorder, boundedinput,
# lockorder — see ANNOTATIONS.md) over every package
# including cmd/ and examples/, driven through `go vet -vettool` so
# runs are cached per package like any other vet check. staticcheck
# runs when installed; CI installs a pinned version, offline dev boxes
# may not have it and skip with a note rather than failing the gate.
#
# LINT_ANALYZERS=fsyncorder,lockorder (comma-separated names) restricts
# the reprolint pass to a subset: the variable flows through the
# environment into the vettool, which folds it into its -V=full cache
# identity so filtered and full verdicts never mix.
REPROLINT_BIN ?= $(CURDIR)/bin/reprolint

lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) build -o $(REPROLINT_BIN) ./cmd/reprolint
	$(GO) vet -vettool=$(REPROLINT_BIN) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs a pinned version)"; fi

# Self-test for the linter's exit-code contract (0 clean / 1 standalone
# findings / 2 under the vet unit-check protocol) and the
# LINT_ANALYZERS filter, replayed against the fsyncorder goldens.
lint-gate:
	./scripts/lint_gate.sh

test:
	$(GO) test ./...

# Race-detector pass; required for internal/cmap (concurrent shard locks
# and the resize hand-off race test, TestRaceResizeHandoff). Kept out of
# `check` so the default target stays fast — CI runs it as its own job,
# and it re-executes the same suite `test` already covers.
race:
	$(GO) test -race ./...

check: build vet lint test

# Full benchmark sweep; benchfmt output saved for tracking.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) . ./internal/... | tee $(BENCH_OUT)

# Get/Put trajectory benchmarks as machine-readable JSON (the checked-in
# BENCH_get.json): the cmap read/write hot paths across -cpu values, so
# the repo carries a perf history PR over PR. CI uploads the artifact.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_GET_PATTERN)' -benchmem -benchtime $(BENCH_GET_TIME) -count 6 -cpu $(BENCH_GET_CPUS) ./internal/cmap ./internal/obs | $(GO) run ./cmd/benchjson > $(BENCH_GET_JSON)

# Fast smoke pass over the hot-path benchmarks (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Place|GeneratorCost|GeneratorBatchCost' -benchmem -benchtime 100x .

# The benchmark module (bench/, module repro/bench) builds against this
# tree through a replace directive, but the root `go build ./...` never
# builds it: vet and smoke-test it (every workload at a tiny scale, both
# modes; ~10 s) so a signature change in cmap, persist or the facade
# cannot break the benchmark unnoticed.
bench-module:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Differential fuzz smoke (used by CI): each op-sequence fuzz target runs
# against the shared shadow-map oracle for FUZZ_TIME. `go test -fuzz`
# accepts one target per invocation, hence one line per package.
# FuzzLoadMatchesPuts builds, snapshots and loads maps per input, so
# minimizing one new input under Go's default 60 s cap would spend the
# whole smoke budget; a 5 s cap leaves most of it to fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCMapOps$$' -fuzztime $(FUZZ_TIME) ./internal/cmap
	$(GO) test -run '^$$' -fuzz '^FuzzCMapStringOps$$' -fuzztime $(FUZZ_TIME) ./internal/cmap
	$(GO) test -run '^$$' -fuzz '^FuzzLoadMatchesPuts$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 5s ./internal/cmap
	$(GO) test -run '^$$' -fuzz '^FuzzCuckooOps$$' -fuzztime $(FUZZ_TIME) ./internal/cuckoo
	$(GO) test -run '^$$' -fuzz '^FuzzOpenAddrOps$$' -fuzztime $(FUZZ_TIME) ./internal/openaddr
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZ_TIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime $(FUZZ_TIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wire

# End-to-end serving smoke (used by CI): boot served on a loopback
# ephemeral port, drive it with loadgen -net under full verification
# (shadow maps + final MGET sweep; any lost/divergent pair fails),
# require batched MGET reads to beat per-key GETs by >= 1.2x, then
# SIGTERM and prove the restart recovers the checkpointed pairs, then
# SIGKILL and prove the WAL replay recovers every pair with no torn tail,
# then start on a fresh directory whose only file is a 16-byte zero WAL
# (a crash before the header's fsync) and require every GET not-found.
serve-smoke:
	./scripts/serve_smoke.sh

clean:
	rm -f $(BENCH_OUT)
	rm -rf bin
