#!/usr/bin/env bash
# Bench-regression gate: time the change against its merge-base with
# origin/main on the same machine, in alternating pairs, and fail when
# bench_gate finds a metric slower in (nearly) every pair by a median
# ratio above its limit. The rule is in crates/bench/src/gate.rs.
# Numbers pinned on another day cannot gate: the same code drifts
# between sessions by more than any useful bound.
#
# The merge-base is checked out in a detached git worktree under
# target/ and removed on exit, also after a failure. Each side's bins
# are built once, in their own checkout. A bin writes its report into
# the target/experiments/ of the checkout it was compiled in, so each
# report is copied out right after its run.
#
# Usage: scripts/bench_gate.sh

set -euo pipefail
cd "$(dirname "$0")/.."
# Each checkout must build into its own target/.
unset CARGO_TARGET_DIR

PAIRS=5
# One "bin args|report" entry per run, in run order.
SUITE=(
    "bench_kernels|BENCH_kernels"
    "bench_inference|BENCH_inference"
    # Sharded-store retrieval: streamed store build, deterministic IVF
    # and the flat int8 scan (recall@64 floor asserted inside the bin).
    "bench_retrieval|BENCH_retrieval"
    # Open-loop serving latency at sub-saturation rungs only: p50 at a
    # low offered rate is stable on one core, past saturation it is not.
    "loadgen --open-loop --qps 40,160 --duration-ms 1500|BENCH_serve_openloop"
)
out=target/bench-gate
parent=$out/parent

base=$(git merge-base HEAD origin/main)
rm -rf "$out"
git worktree prune
trap 'git worktree remove --force "$parent" 2>/dev/null || true; git worktree prune' EXIT
git worktree add -q --detach "$parent" "$base"

bins=()
for entry in "${SUITE[@]}"; do
    bins+=(--bin "${entry%%[ |]*}")
done
echo "bench_gate.sh: building the parent ($(git rev-parse --short "$base")) and the change"
(cd "$parent" && cargo build --release -q -p mb-bench "${bins[@]}")
cargo build --release -q -p mb-bench "${bins[@]}" --bin bench_gate

# run_suite CHECKOUT DEST: run the suite as built in CHECKOUT and copy
# each report into DEST; a run's output goes to DEST/<bin>.log. The old
# report is deleted first, so a run that writes none fails the copy.
run_suite() {
    local checkout=$1 dest=$2 entry cmd report
    mkdir -p "$dest"
    for entry in "${SUITE[@]}"; do
        read -r -a cmd <<<"${entry%|*}"
        report=$checkout/target/experiments/${entry#*|}.json
        rm -f "$report"
        if ! (cd "$checkout" && "target/release/${cmd[0]}" "${cmd[@]:1}") >"$dest/${cmd[0]}.log" 2>&1; then
            cat "$dest/${cmd[0]}.log"
            echo "bench_gate.sh: ${cmd[0]} failed in $checkout" >&2
            return 1
        fi
        cp "$report" "$dest/"
    done
}

for i in $(seq 1 "$PAIRS"); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        if [[ $side == parent ]]; then checkout=$parent; else checkout=.; fi
        echo "bench_gate.sh: pair $i/$PAIRS, $side"
        run_suite "$checkout" "$out/$i/$side"
    done
done
target/release/bench_gate "$out"
