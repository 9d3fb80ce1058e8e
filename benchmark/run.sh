#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output.
#
# Everything the build and the run write stays under the checkout: the
# binary and the Go build cache in .bench_build/, temp files (mini-HDFS
# blocks, spill files, checkpoint chunks) in .bench_build/tmp/, traces in
# benchmark/out/. The one exception is the runtime's own shared-memory
# segments, which it creates under /dev/shm and removes itself; the shm
# probes measure that production path on purpose.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

go build -o "$build/datampi-benchmark" ./benchmark
exec "$build/datampi-benchmark" "$@"
