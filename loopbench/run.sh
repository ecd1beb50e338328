#!/usr/bin/env bash
# Builds the loopbench binary from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#	bash loopbench/run.sh --workload wear --seed 1 --seconds 15 --trace 0
#
# Every build product (Go build cache, binary, spans, fleet data dirs) stays
# under .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/loopbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$src" && go build -o "$out/loopbench" .)
exec "$out/loopbench" -workdir "$out" "$@"
