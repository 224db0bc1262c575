#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root. Every build
# product, Go cache and work file stays under .bench_build/ in the root.
#
#   bash bench/run.sh --workload cli-sparse --seed 1 --seconds 25 --trace 0
#
# Arguments are passed to the benchmark unchanged; see bench/README.md.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
