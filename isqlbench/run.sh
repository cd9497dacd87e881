#!/usr/bin/env bash
# Builds isqld and the load generator from this checkout, then runs one
# benchmark workload against the real binary:
#
#   bash isqlbench/run.sh --workload census-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# every data directory stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; only the last line of standard
# output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/isqlbench/go.mod" ]]; then
	echo "isqlbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/home"

# The go command keeps its caches, settings and telemetry under HOME;
# point all of it inside the build directory. No module is downloaded:
# the benchmark module requires only this repository, by path.
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
	export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
	cd "$root/isqlbench"
	go build -o "$out/isqlbench" .
	go build -o "$out/isqld" worldsetdb/cmd/isqld
) >&2
# go build relinks both binaries on every run. Write them back now:
# left to the kernel, some 20 MB of dirty pages would be flushed about
# 30 s later, in the middle of this or the next run's measured window,
# and stall the server's fsyncs and process starts.
sync "$out/isqlbench" "$out/isqld"
exec "$out/isqlbench" -isqld "$out/isqld" -work "$out/work" "$@"
