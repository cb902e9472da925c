#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh -workload read_cold -seed 7
#
# Everything the build and the runs leave behind stays under
# .bench_build/ in the checkout: the Go build cache, the binaries, the
# generated ERI datasets, the daemon's stores and the result files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pastrid || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root; go.mod, cmd/pastrid and bench/ must be present" >&2
	exit 2
fi
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp \
	TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$build/bin/pastribench" .)
exec "$build/bin/pastribench" -root "$root" "$@"
