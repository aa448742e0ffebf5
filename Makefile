# Repro harness. `make verify` is the CI gate: build, vet, the full test
# suite, the race detector over the quick configurations (with a
# repeated-run soak of the schedulers and the reliable transport), and
# the quick fault-injection sweeps.

GO ?= go

.PHONY: all build test vet race chaos verify bench benchcmp bench-quick bench-shards bench-parallel profile experiments ledger ledger-test

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/rdd/... ./internal/transport/... ./internal/sim/... ./internal/exec/... ./internal/cluster/... ./internal/ha/... ./internal/dfs/... ./internal/mapred/... ./internal/chaos/... ./internal/rm/... ./internal/mpi/...
	# Multi-shard, parallel-dispatch soak: the quick suite with concurrent
	# sweep points on a 4-way sharded kernel, serial between windows of 4
	# workers — the race detector sees every gang worker touch the shard
	# heaps, inboxes and op logs.
	HPCBD_SHARDS=4 HPCBD_WORKERS=4 $(GO) test -race -count=2 ./internal/sim/... ./internal/exec/... ./internal/cluster/... ./internal/mpi/...
	HPCBD_SHARDS=4 HPCBD_WORKERS=4 $(GO) test -race -short -count=1 .
	HPCBD_SHARDS=4 HPCBD_WORKERS=4 $(GO) test -race -count=2 ./internal/core/...

# Every fault-injection sweep (node crashes, lossy network, master
# kills, split-brain partitions, gray-node tails, resource-exhaustion
# overload) at test scale, with their determinism and shape checks.
chaos:
	$(GO) run ./cmd/chaos-bench -quick

verify: build vet test race chaos
	@echo "verify: OK"

# Regenerate every paper artifact at full scale (slow), recording host
# performance (ns/op, allocs, sim-events/sec) to a dated JSON file that
# `make benchcmp` can diff against a later run.
BENCH_FILE ?= BENCH_$(shell date +%Y-%m-%d).json
bench:
	$(GO) test -json -run '^$$' -bench=. -benchtime=1x -benchmem . > $(BENCH_FILE)
	@echo "wrote $(BENCH_FILE)"

# Diff two `make bench` recordings; fails if a full-scale figure
# benchmark's wall clock regressed more than 10% or its allocs/op more
# than 15%.
# Usage: make benchcmp OLD=BENCH_2026-08-01.json NEW=BENCH_2026-08-05.json
benchcmp:
	$(GO) run ./cmd/benchcmp -max-regress 10 -max-alloc-regress 15 $(OLD) $(NEW)

# Test-scale figure benchmarks diffed against the committed baseline
# (bench/baseline-quick.txt), so perf regressions surface in seconds
# instead of after a full-scale run. Allocation counts are deterministic
# and machine-independent, so they gate tightly (15%); wall clock at
# quick scale is noisy and only catastrophic slowdowns (>75%) fail.
bench-quick:
	$(GO) test -run '^$$' -bench 'Fig4AnswersCount|Fig6PageRankBigDataBench|Fig7PageRankHiBench' -short -benchtime 1x -benchmem . | tee bench-quick-latest.txt
	$(GO) run ./cmd/benchcmp -max-regress 75 -max-alloc-regress 15 bench/baseline-quick.txt bench-quick-latest.txt

# Sharded-kernel scaling: the event-storm microbenchmark at 1 vs 4
# shards, and the production-scale (1,000+ node) AnswersCount sweep with
# kernel telemetry (events/sec, cross-shard traffic, independence).
bench-shards:
	$(GO) test -run '^$$' -bench BenchmarkShardedStorm -benchtime 5x -benchmem ./internal/sim/
	$(GO) run ./cmd/answerscount-bench -quick -shards 4 -scale -scale-max 4000

# Multicore dispatch scaling: the production-scale sweep at 1, 2, 4 and
# 8 window-dispatch workers on the 4-way sharded kernel. The Workers and
# Windowed telemetry columns show how much of the event stream ran
# inside conservative windows; events/sec shows the realized speedup
# (bounded by the host's core count — on a single-core host the worker
# counts tie).
bench-parallel:
	for w in 1 2 4 8; do \
		$(GO) run ./cmd/answerscount-bench -quick -shards 4 -workers $$w -scale -scale-max 4000 || exit 1; \
	done

# The repo's benchmark (BENCHMARK.json): every ledger workload end to end,
# and the ledger's own tests — a nested module, so `go test ./...` from
# the root does not descend into it.
ledger:
	bash ledger/run.sh -workload all

ledger-test:
	cd ledger && $(GO) test -short ./...

# Host CPU and allocation profiles of the full-scale PageRank and
# AnswersCount regenerations — the starting point for perf work.
# Inspect with: $(GO) tool pprof profiles/pagerank.cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/pagerank-bench -cpuprofile profiles/pagerank.cpu.pprof -memprofile profiles/pagerank.mem.pprof
	$(GO) run ./cmd/answerscount-bench -cpuprofile profiles/answerscount.cpu.pprof -memprofile profiles/answerscount.mem.pprof
	@echo "profiles written to profiles/"

# The §VI-D fault-tolerance sweep at paper scale.
experiments:
	$(GO) run ./cmd/chaos-bench
