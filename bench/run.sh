#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): build the bench
# package from source and run it with the arguments given. Run from the
# repository root. Everything the build writes - the binary, Go's build
# cache, its module and config directories - stays in .bench_build/
# inside the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a vpatch checkout (no go.mod here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
# With a fresh HOME the go command would take the telemetry upload token
# and leave a detached child (GO_TELEMETRY_CHILD) running after it exits.
# Mode "off" makes telemetry.Start return before it starts one.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/vpbench" ./bench
"$build/vpbench" "$@"
