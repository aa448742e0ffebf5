#!/usr/bin/env bash
# Builds the ledger from source into .bench_build/ at the root of the
# checkout (Go's build cache, work directory, module path and telemetry
# counters included, so nothing is written outside the checkout) and runs
# it from the root with the arguments given.
#
#   bash ledger/run.sh --workload figures --seed 20160926 --seconds 28 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
t0=$(date +%s%N)
(cd "$here" && go build -o "$out/ledger" .)
t1=$(date +%s%N)
LEDGER_BUILD_S=$(awk "BEGIN{printf \"%.3f\", ($t1-$t0)/1e9}")
LEDGER_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export LEDGER_BUILD_S LEDGER_COMMIT
cd "$root"
exec "$out/ledger" "$@"
