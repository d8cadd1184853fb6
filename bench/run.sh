#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoked from the
# repository root as `bash bench/run.sh [flags]`; everything it writes
# (build cache, binary, scratch data, span files) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local
export GOPATH=${GOPATH:-$out/gopath}

# The build is incremental: after the first run it only checks that the
# binary is up to date. It fails, and the script with it, when the
# repository the benchmark measures is not there.
go build -C "$here" -o "$out/mirabel-bench" .
exec "$out/mirabel-bench" "$@"
