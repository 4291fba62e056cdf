#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv_mix --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary,
# trace and profile files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/perfbench"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench/out" "$@"
