#!/usr/bin/env bash
# Builds the Madeus benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash madeusbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

(
	cd "$root/madeusbench"
	XDG_CONFIG_HOME=$out/config GOCACHE=$out/gocache GOTMPDIR=$out/gotmp \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/madeusbench" .
)
exec "$out/madeusbench" --out "$out" --commit "$commit" "$@"
