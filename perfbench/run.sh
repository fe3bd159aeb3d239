#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the repository:
#
#   bash perfbench/run.sh --workload ior_compare --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache, toolchain config and temporary files,
# the binary, the generated inputs and the spans all stay under
# .bench_build/ in the repository; nothing is downloaded. The variables
# below apply to the build only: the benchmark sets no environment knob
# for the program it measures.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/modcache" "$out/go/config"

(cd "$here" && GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOMODCACHE="$out/go/modcache" \
	XDG_CONFIG_HOME="$out/go/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go build -trimpath -o "$out/perfbench" .) >&2

exec "$out/perfbench" -workdir "$out" "$@"
