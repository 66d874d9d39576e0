#!/usr/bin/env bash
# The benchmark's entry point: build the program and the load generator
# from source into one target directory, then hand every argument to
# `loadgen` (see `loadgen --help`; BENCHMARK.json names this script).
#
#   bash perfbench/run.sh --workload solo_mem --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh run --seed 2001        # every metric, full report
#   bash perfbench/run.sh --smoke                # < 15 s end-to-end check
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# loadgen keeps its files under perfbench/out relative to the repo root.
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" -p sqlts-cli
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "$target/release/loadgen" "$@"
