#!/usr/bin/env bash
# Build the benchmark (offline; it is its own package) and run it from
# the checkout root:
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
# With no --workload every workload runs in turn. The last line of
# standard output is the result object of the last pass.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mb-benchmark" "$@"
