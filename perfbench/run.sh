#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload scale-256 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh report --runs 5
#
# Everything the build writes (binary, Go build cache) goes under
# $CARGO_TARGET_DIR, by default .bench_build, inside the checkout. The
# benchmark inherits the same Go environment for `go tool pprof`.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)/perfbench
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(
	cd "$here"
	go build -o "$out/perfbench.new" . >&2
	mv "$out/perfbench.new" "$out/perfbench"
)
exec "$out/perfbench" "$@"
