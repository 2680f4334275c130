#!/usr/bin/env bash
# The CI gate, runnable locally with byte-for-byte the same steps as
# .github/workflows/ci.yml. The drift test (tests/ci_drift.rs) compares
# `scripts/ci.sh --list-steps` against the workflow's `- run:` lines,
# so the two cannot silently diverge.
#
# The workspace is hermetic: every dependency is a path crate, so all
# steps work with networking disabled (cargo never touches a registry).
#
# Usage: scripts/ci.sh              # run the full gate
#        scripts/ci.sh --list-steps # print the step commands, one per line

set -euo pipefail
cd "$(dirname "$0")/.."

# One "name|command" entry per step, in run order. The command half is
# what --list-steps prints and what the drift test matches against the
# workflow, so edits here and in ci.yml must stay in lockstep.
STEPS=(
    "fmt|cargo fmt --all --check"
    "clippy|cargo clippy --workspace --all-targets -- -D warnings"
    # In-repo static analysis: panic-freedom, determinism, lock
    # discipline and hot-loop allocation (each at the site and through
    # every call), unsafe gate, tape-free serving. Fails on any finding.
    "lint|cargo run -q -p mb-lint"
    # Docs: every intra-doc link resolves and names a public item, so a
    # doc link left pointing at a deleted or private item fails here.
    "doc|RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps -q"
    "build|cargo build --release --workspace"
    "test|cargo test -q --workspace"
    # Bench smoke: every table and figure of the paper on the benchmark
    # world with a shortened training budget, each claim of the claim
    # table judged (a claim that flips in either direction fails), then
    # the tests that each claim can fail and that sharing a trained row
    # changes nothing (#[ignore]d in debug, run here in release).
    "bench-smoke|cargo run --release -q -p mb-bench --bin paper -- --check && cargo test --release -q -p mb-bench --test paper -- --include-ignored"
    # Fault-injection smoke: kill training at every step, resume from
    # the surviving checkpoints, and require bit-identical results. The
    # exhaustive sweep is #[ignore]d in the default (debug) suite and
    # run here in release.
    "fault-smoke|cargo test --release -q -p mb-core --test resume -- --include-ignored"
    # Kernel bench smoke: times the cache-blocked matmul against the
    # naive reference (and asserts bit-identity between them before
    # timing); writes target/experiments/BENCH_kernels.json.
    "kernel-smoke|cargo run --release -p mb-bench --bin bench_kernels"
    # Thread-count determinism: linker outputs, meta weights, and
    # trained parameters must be bit-identical at 1/2/4 worker threads.
    # Run in release so the blocked (not fallback) kernels are pinned.
    "thread-determinism|cargo test --release -q -p mb-core --test thread_determinism"
    # Baseline-CPU bits: the one-forward pins (link digests included)
    # and the training digest, rebuilt for plain x86-64 instead of the
    # host CPU. The kernels vectorise differently at each width; the
    # bits must not move (.cargo/config.toml).
    "baseline-cpu|RUSTFLAGS=\"-C target-cpu=x86-64\" CARGO_TARGET_DIR=target/baseline-cpu cargo test --release -q --test one_forward && RUSTFLAGS=\"-C target-cpu=x86-64\" CARGO_TARGET_DIR=target/baseline-cpu cargo test --release -q -p mb-core --test resume training_outputs_are_pinned"
    # Serve smoke: train a small model, evaluate it (same numbers as
    # train), serve it, and drive it with the load generator — 100% 2xx
    # under load, every /metrics line benchmark/ scrapes plus cache
    # hits, and a graceful shutdown that exits 0.
    "serve-smoke|scripts/serve_smoke.sh"
    # Chaos serve: drive the server through a seed-replayable
    # fault-injecting proxy (slow loris, torn replies, aborts, stalled
    # clients) with a hot model swap racing the traffic, and overload
    # it past its deadline budget — it must never wedge, never emit a
    # torn 200, shed fast 503s with Retry-After, and recover healthy.
    "chaos-serve|cargo test --release -q -p mb-serve --test chaos -- --include-ignored"
    # Retrieval smoke: stream a small sharded entity store to disk,
    # build the deterministic IVF index over it, and assert the flat
    # int8 scan equals the reference fold + full sort, recall@64 >= 0.95
    # against that oracle, and a byte-identical rebuild at 1 and 3
    # workers.
    "retrieval-smoke|cargo run --release -q -p mb-bench --bin bench_retrieval -- --smoke"
    # Benchmark smoke: build benchmark/ (a package of its own, outside
    # this workspace) against the current crates and run both passes of
    # every workload in miniature with its oracles on. This is the
    # stage that catches a crates/ API change that stops the benchmark
    # compiling, or that changes what a workload computes.
    "benchmark-smoke|benchmark/run.sh --smoke"
    # Bench regression: run the kernel, inference, retrieval and
    # open-loop serving benches at this commit and at its merge-base
    # with origin/main, in five alternating pairs on the same machine;
    # fail when a median is slower in every pair and by a median ratio
    # above 1.15.
    "bench-regression|scripts/bench_gate.sh"
)

if [[ "${1:-}" == "--list-steps" ]]; then
    for step in "${STEPS[@]}"; do
        echo "${step#*|}"
    done
    exit 0
fi

names=()
seconds=()
for step in "${STEPS[@]}"; do
    name="${step%%|*}"
    cmd="${step#*|}"
    echo
    echo "==> [$name] $cmd"
    start=$SECONDS
    bash -c "$cmd"
    names+=("$name")
    seconds+=("$((SECONDS - start))")
done

echo
echo "stage timing:"
total=0
for i in "${!names[@]}"; do
    printf '  %-20s %4ss\n' "${names[$i]}" "${seconds[$i]}"
    total=$((total + seconds[i]))
done
printf '  %-20s %4ss\n' "total" "$total"

echo
echo "CI gate passed."
