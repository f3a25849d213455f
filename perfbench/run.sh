#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, and the unix
# sockets of the rank mesh and the serve front end (TMPDIR is relative so
# socket paths stay short).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out=.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOPATH="$PWD/$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "../$out/perfbench" .) >&2
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
