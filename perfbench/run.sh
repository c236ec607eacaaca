#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload mine-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. The Go build cache and the binary
# live under .bench_build/ in the working directory, so nothing is written
# outside it. The build needs the repository's root module (../go.mod seen
# from this directory); without it the build fails and so does this script.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
