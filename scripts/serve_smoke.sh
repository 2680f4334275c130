#!/usr/bin/env bash
# Serve smoke test, called from scripts/ci.sh and the serve-smoke CI
# job: train a small model, evaluate it, serve it on an ephemeral
# port, drive it with the closed-loop load generator, and require
#
#   - a model directory of exactly model.mbc + manifest.txt, which
#     `evaluate` and `serve` both load,
#   - `evaluate` on that directory printing the R@k / N.Acc / U.Acc that
#     `train` printed for the same test split (one config per scale),
#   - 100% 2xx responses under concurrent load (loadgen --strict),
#   - every /metrics line benchmark/ scrapes, and cache hits from the
#     repeated payloads (loadgen --check-metrics),
#   - a graceful drain: after POST /admin/shutdown the server process
#     must exit 0 on its own.
#
# Usage: scripts/serve_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

train_out="$(cargo run --release -q --bin metablink -- train --seed 7 --scale small \
    --domain Lego --method blink --source seed --out "$workdir/model")"
echo "$train_out"

if [[ "$(ls "$workdir/model" | sort | xargs)" != "manifest.txt model.mbc" ]]; then
    echo "train left more than model.mbc + manifest.txt: $(ls "$workdir/model" | xargs)" >&2
    exit 1
fi

eval_out="$(cargo run --release -q --bin metablink -- evaluate --model "$workdir/model")"
echo "$eval_out"
trained="$(grep '^test: ' <<<"$train_out")"
if [[ "${trained#test: }" != "R@${eval_out#*R@}" ]]; then
    echo "evaluate disagrees with train on the same model: '$eval_out' vs '$trained'" >&2
    exit 1
fi

cargo run --release -q --bin metablink -- serve --model "$workdir/model" \
    --addr 127.0.0.1:0 --addr-file "$workdir/addr.txt" &
server_pid=$!

# loadgen polls the addr file until the server has bound its port.
cargo run --release -q -p mb-bench --bin loadgen -- \
    --addr-file "$workdir/addr.txt" --requests 80 --concurrency 4 \
    --strict --check-metrics --shutdown

wait "$server_pid"
echo "serve smoke passed (graceful shutdown exited 0)."
