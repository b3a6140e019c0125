# Standard developer entry points. Everything is stdlib-only Go; no
# tools beyond the toolchain are required.

GO ?= go

.PHONY: all build vet test examples sloc race fuzz bench bench-dse bench-serve bench-fleet soak-fleet serve clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Run every example once; any non-zero exit fails the target. The build
# and the tests only compile them.
examples:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d >/dev/null; done

# Lines of non-test Go outside e2ebench/ (the benchmark's own module):
# the count that ROADMAP's net-line targets and CHANGES.md quote.
sloc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './e2ebench/*' -print0 | xargs -0 cat | wc -l

# The serve subsystem is concurrency-heavy; run the whole tree under
# the race detector before shipping.
race:
	$(GO) test -race ./...

# Short fuzz smoke over the parser targets, the DSE summary's
# merge-of-parts property, the batch-vs-sequential pricing
# differential, the profile-key spelling invariance, the traceparent
# header parser and the analyze endpoints' bodies; CI's fuzz smoke runs
# this target (one -fuzz per invocation, a Go toolchain constraint).
fuzz:
	$(GO) test -fuzz=FuzzParseDataflow -fuzztime=10s -run xxx ./internal/dataflow/
	$(GO) test -fuzz=FuzzParseNetwork -fuzztime=10s -run xxx ./internal/dataflow/
	$(GO) test -fuzz=FuzzParseHW -fuzztime=10s -run xxx ./internal/hw/
	$(GO) test -fuzz=FuzzPartition -fuzztime=10s -run xxx ./internal/dse/
	$(GO) test -fuzz=FuzzDSESummary -fuzztime=10s -run xxx ./internal/dse/
	$(GO) test -fuzz=FuzzPriceBatch -fuzztime=10s -run xxx ./internal/core/
	$(GO) test -fuzz=FuzzProfileKey -fuzztime=10s -run xxx ./internal/core/
	$(GO) test -fuzz=FuzzExtractTraceparent -fuzztime=10s -run xxx ./internal/obs/
	$(GO) test -fuzz=FuzzPartitionDAG -fuzztime=10s -run xxx ./internal/netsched/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s -run xxx ./internal/fleet/
	$(GO) test -fuzz=FuzzHandler -fuzztime=10s -run xxx ./internal/serve/

# One pass over the figure/table benchmarks plus the service benchmarks.
bench:
	$(GO) test -bench . -benchtime 1x -run xxx .
	$(GO) test -bench . -benchmem -run xxx ./internal/serve

# DSE throughput: warm-cache, cold-profile, and per-point-Analyze
# variants of the Explore benchmark; the one-shot Analyze (Profile then
# a batch-of-one Price) beside each phase alone, PriceBatch and the
# profile-key microbenchmarks; a fixed-dataflow fusion schedule and a
# residency schedule on a warm profile cache (BenchmarkRunFused and
# BenchmarkRun, both matched by the BenchmarkRun prefix); the fusion
# sweeps of a fleet chunk and a /v1/fusion request
# (BenchmarkExploreFusion, which the BenchmarkExplore pattern matches by
# prefix); and one layer's mapping search, templates alone and with a
# budget-200 hill climb. The measured numbers are recorded in
# BENCH_dse.json.
bench-dse:
	$(GO) test -bench 'BenchmarkExplore|BenchmarkProfileVsAnalyze|BenchmarkPriceBatch|BenchmarkProfileKey|BenchmarkRun|BenchmarkTuneLayer' -benchtime 200x -benchmem -run xxx ./internal/dse/ ./internal/core/ ./internal/netsched/ ./internal/tuner/

# Served requests through Handler(): a cached and an uncached
# /v1/analyze for two zoo layers and a fleet-shaped /v1/dse shard; the
# measured numbers are recorded in BENCH_serve.json.
bench-serve:
	$(GO) test -bench BenchmarkHandler -benchmem -count 5 -run xxx ./internal/serve

# Fleet scaling: 1/2/4 in-process nodes with injected per-shard service
# time, then DSE and fusion dispatch plus compute with nothing injected;
# the measured numbers are recorded in BENCH_fleet.json.
bench-fleet:
	$(GO) test -bench 'BenchmarkFleetSweep/^nodes=' -benchtime 3x -run xxx ./internal/fleet
	$(GO) test -bench 'BenchmarkFleetSweep/^(fusion,)?latency=0' -benchtime 200x -count 5 -run xxx ./internal/fleet

# Crash-recovery soak: kill the coordinator mid-sweep and resume from
# the journal, SOAK_N times in a row under the race detector. Any
# nondeterminism in replay or journal truncation shows up here. The
# -run prefix matches the DSE and the fusion crash-resume tests, so it
# soaks both sweep kinds on the one shard runner.
SOAK_N ?= 10
soak-fleet:
	$(GO) test -race -run 'TestChaosCoordinatorCrashResume' -count $(SOAK_N) -timeout 10m ./internal/fleet/

serve:
	$(GO) run ./cmd/maestro-serve

clean:
	$(GO) clean ./...
