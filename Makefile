# Repro harness. `make verify` is the CI gate: gofmt, build, vet, a smoke
# run of every command and example, the full test suite, the race
# detector over the quick configurations (with a repeated-run soak of the
# schedulers and the reliable transport), and the quick fault-injection
# sweeps.

GO ?= go
GOFMT ?= gofmt

.PHONY: all fmt build test vet smoke race chaos verify bench benchcmp bench-quick profile experiments ledger ledger-test

all: verify

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The six fault-injection sweeps among hpcbd's artifacts (node crashes,
# lossy network, master kills, split-brain partitions, gray-node tails,
# resource-exhaustion overload).
SWEEPS := chaos transport master partition tail overload

# Builds hpcbd and every example once into $(SMOKE_BIN)/ and runs every
# hpcbd artifact but the sweeps (those run under `make chaos`) with
# -quick, in one process, and every example bare. Fails on any non-zero
# exit, and on an unknown artifact name or -csv with -json that does not
# exit 2.
SMOKE_BIN ?= .smoke
smoke:
	$(GO) build -o $(SMOKE_BIN)/ ./cmd/hpcbd ./examples/...
	@set -e; names=$$($(SMOKE_BIN)/hpcbd 2>&1 | sed -n 's/^artifacts: //p'); \
		run=$$(for n in $$names; do case " $(SWEEPS) " in *" $$n "*) ;; *) echo $$n;; esac; done); \
		echo "smoke: hpcbd -quick" $$run; $(SMOKE_BIN)/hpcbd -quick $$run >/dev/null 2>$(SMOKE_BIN)/hpcbd.err \
			|| { cat $(SMOKE_BIN)/hpcbd.err; exit 1; }
	@set -e; for t in $(notdir $(wildcard examples/*)); do echo "smoke: $$t"; $(SMOKE_BIN)/$$t >/dev/null; done
	@for c in "bogus" "interconnect filesytem" "-csv -json fig3"; do \
		rc=0; $(SMOKE_BIN)/hpcbd $$c >/dev/null 2>&1 || rc=$$?; \
		if [ $$rc -ne 2 ]; then echo "smoke: hpcbd $$c exited $$rc, want 2"; exit 1; fi; \
	done
	@echo "smoke: OK"

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/rdd/... ./internal/transport/... ./internal/sim/... ./internal/exec/... ./internal/cluster/... ./internal/ha/... ./internal/dfs/... ./internal/mapred/... ./internal/chaos/... ./internal/rm/... ./internal/mpi/...
	# The experiment suite in full, twice: sweep points run concurrently
	# under exec.ForEach, and ScaleSweep's sharded points open parallel
	# dispatch windows, so the race detector sees both.
	$(GO) test -race -count=2 ./internal/core/...

# Every fault-injection sweep at test scale, each run twice for its
# determinism and shape checks.
chaos:
	$(GO) run ./cmd/hpcbd -quick $(SWEEPS)

verify: fmt build vet smoke test race chaos
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
	$(GO) run ./cmd/hpcbd -cpuprofile profiles/pagerank.cpu.pprof -memprofile profiles/pagerank.mem.pprof fig6 fig7
	$(GO) run ./cmd/hpcbd -cpuprofile profiles/answerscount.cpu.pprof -memprofile profiles/answerscount.mem.pprof fig4
	@echo "profiles written to profiles/"

# The six fault-injection sweeps at paper scale.
experiments:
	$(GO) run ./cmd/hpcbd $(SWEEPS)
