#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage (from the root of the checkout):
#   bash perfbench/run.sh --workload nfs-write --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh sweep -out A.jsonl -runs 10
#   bash perfbench/run.sh compare A.jsonl B.jsonl
# Everything the build and the runs write stays under .bench_build in
# the checkout; the Go toolchain is the only requirement.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}" GOPATH="${build}/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
