#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes — Go's build cache and the binary — goes
# under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it. The benchmark is its own module
# (benchmark/go.mod) that imports the engine from the enclosing module;
# without that module around it the build, and so this script, fails.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$src")/.bench_build"
mkdir -p "$build"
(
	cd "$src"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$build/redoop-benchmark" .
)
exec "$build/redoop-benchmark" "$@"
