#!/usr/bin/env bash
# Builds wwtbench from source into .bench_build/ at the repository root and
# runs it from there with the arguments given, e.g.
#
#   bash bench/run.sh --workload mp-tables --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -seed 1            # every workload, writes bench/out/result.json
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$bench" && go build -o "$build/wwtbench" .)
cd "$root"
exec "$build/wwtbench" "$@"
