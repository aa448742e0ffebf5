# Repro harness. `make verify` is the CI gate: gofmt, build, vet, a smoke
# run of every command and example, the full test suite, the race
# detector over the quick configurations (with a repeated-run soak of the
# schedulers and the reliable transport), and the quick fault-injection
# sweeps.

GO ?= go
GOFMT ?= gofmt

.PHONY: all fmt build test vet smoke race chaos verify profile experiments ledger ledger-test

all: verify

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# ledger/ is a nested module that `./...` never reaches, so it is vetted
# (and so compiled) on its own: an identifier it uses cannot be deleted
# from the root module unnoticed.
vet:
	$(GO) vet ./...
	cd ledger && $(GO) vet ./...

test:
	$(GO) test ./...

# The six fault-injection sweeps among hpcbd's artifacts (node crashes,
# lossy network, master kills, split-brain partitions, gray-node tails,
# resource-exhaustion overload).
SWEEPS := chaos transport master partition tail overload

# Builds hpcbd and every example once into $(SMOKE_BIN)/ and runs every
# hpcbd artifact but the sweeps (those run under `make chaos`) with
# -quick, in one process, every example bare, and hpcbd's -csv, -json
# and -plot output paths on fig4 and table2, and BenchmarkArtifacts on
# table1 and fig3 so the benchmark cannot rot. Fails on any non-zero
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
	@set -e; for f in -csv -json -plot; do echo "smoke: hpcbd -quick $$f fig4 table2"; \
		$(SMOKE_BIN)/hpcbd -quick $$f fig4 table2 >/dev/null 2>$(SMOKE_BIN)/hpcbd.err \
			|| { cat $(SMOKE_BIN)/hpcbd.err; exit 1; }; done
	@for c in "bogus" "interconnect filesytem" "-csv -json fig3"; do \
		rc=0; $(SMOKE_BIN)/hpcbd $$c >/dev/null 2>&1 || rc=$$?; \
		if [ $$rc -ne 2 ]; then echo "smoke: hpcbd $$c exited $$rc, want 2"; exit 1; fi; \
	done
	$(GO) test -run '^$$' -bench 'Artifacts/(table1|fig3)$$' -benchtime 1x -short .
	@echo "smoke: OK"

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/rdd/... ./internal/transport/... ./internal/sim/... ./internal/exec/... ./internal/cluster/... ./internal/ha/... ./internal/dfs/... ./internal/mapred/... ./internal/chaos/... ./internal/rm/... ./internal/mpi/...
	# The experiment suite in full, twice: Fig 3/4/6/7, the persist
	# ablation and ScaleSweep run their points concurrently under
	# exec.ForEach (the six fault sweeps run theirs serially), and
	# ScaleSweep's sharded points open parallel dispatch windows, so the
	# race detector sees both.
	$(GO) test -race -count=2 ./internal/core/...

# Every fault-injection sweep at test scale, each run twice for its
# determinism and shape checks.
chaos:
	$(GO) run ./cmd/hpcbd -quick $(SWEEPS)

verify: fmt build vet smoke test race chaos
	@echo "verify: OK"

# The repo's benchmark (BENCHMARK.json): every ledger workload end to end,
# and the ledger's own tests — a nested module, so `go test ./...` from
# the root does not descend into it.
ledger:
	bash ledger/run.sh -workload all

ledger-test:
	cd ledger && $(GO) test -short ./...

# Host CPU and allocation profiles of the full-scale PageRank (Fig 6/7),
# AnswersCount (Fig 4) and reduce microbenchmark (Fig 3) regenerations —
# the starting point for perf work.
# Inspect with: $(GO) tool pprof profiles/pagerank.cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/hpcbd -cpuprofile profiles/pagerank.cpu.pprof -memprofile profiles/pagerank.mem.pprof fig6 fig7
	$(GO) run ./cmd/hpcbd -cpuprofile profiles/answerscount.cpu.pprof -memprofile profiles/answerscount.mem.pprof fig4
	$(GO) run ./cmd/hpcbd -cpuprofile profiles/reduce.cpu.pprof -memprofile profiles/reduce.mem.pprof fig3
	@echo "profiles written to profiles/"

# The six fault-injection sweeps at paper scale.
experiments:
	$(GO) run ./cmd/hpcbd $(SWEEPS)
