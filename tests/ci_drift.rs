//! CI drift enforcement: `scripts/ci.sh` and `.github/workflows/ci.yml`
//! must run the same commands in the same order.
//!
//! The shell script is the source of truth for local runs and prints
//! its step list via `--list-steps`; this test diffs that list against
//! the workflow's `- run:` lines (setup lines like `rustup component
//! add` excepted). Before this test existed the two files carried a
//! "keep in sync" comment — now divergence fails the build instead.

use std::process::Command;

/// Step commands as `scripts/ci.sh --list-steps` prints them.
fn script_steps() -> Vec<String> {
    let out = Command::new("bash")
        .arg("scripts/ci.sh")
        .arg("--list-steps")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to spawn scripts/ci.sh --list-steps");
    assert!(
        out.status.success(),
        "scripts/ci.sh --list-steps failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("--list-steps output is not UTF-8")
        .lines()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

/// Step commands from the workflow's `- run:` lines, top to bottom,
/// with environment-setup lines (`rustup component add`) excluded —
/// those install toolchain components on the ephemeral CI runner and
/// have no local equivalent.
fn workflow_steps() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    let yml = std::fs::read_to_string(path).expect("cannot read .github/workflows/ci.yml");
    yml.lines()
        .filter_map(|line| line.trim().strip_prefix("- run:"))
        .map(|cmd| cmd.trim().to_string())
        .filter(|cmd| !cmd.contains("rustup component add"))
        .collect()
}

#[test]
fn ci_script_and_workflow_run_the_same_steps_in_the_same_order() {
    let script = script_steps();
    let workflow = workflow_steps();
    assert!(!script.is_empty(), "scripts/ci.sh --list-steps printed nothing");
    assert_eq!(
        script, workflow,
        "scripts/ci.sh and .github/workflows/ci.yml have drifted;\n\
         left:  scripts/ci.sh --list-steps\n\
         right: ci.yml `- run:` lines (rustup setup lines excluded)"
    );
}

#[test]
fn ci_script_ends_with_the_bench_regression_gate() {
    let script = script_steps();
    assert_eq!(
        script.last().map(String::as_str),
        Some("scripts/bench_gate.sh"),
        "the bench-regression gate must stay the final CI step"
    );
}

#[test]
fn ci_script_includes_the_retrieval_smoke_stage() {
    let script = script_steps();
    let smoke = "cargo run --release -q -p mb-bench --bin bench_retrieval -- --smoke";
    let smoke_at = script.iter().position(|s| s == smoke);
    assert!(
        smoke_at.is_some(),
        "the retrieval-smoke stage must build a small sharded store and assert \
         recall + bit-identical rebuild (bench_retrieval --smoke)"
    );
    let gate_at = script.iter().position(|s| s == "scripts/bench_gate.sh");
    assert!(smoke_at < gate_at, "retrieval-smoke must run before the bench-regression gate");
}

#[test]
fn ci_script_runs_the_benchmark_smoke_right_after_retrieval_smoke() {
    let script = script_steps();
    let retrieval = script
        .iter()
        .position(|s| s == "cargo run --release -q -p mb-bench --bin bench_retrieval -- --smoke");
    let benchmark = script.iter().position(|s| s == "benchmark/run.sh --smoke");
    assert!(
        benchmark.is_some(),
        "the benchmark-smoke stage must build benchmark/ against the current crates and run \
         every workload's oracle (benchmark/run.sh --smoke): nothing else compiles that package"
    );
    assert_eq!(
        benchmark,
        retrieval.map(|i| i + 1),
        "benchmark-smoke must run right after retrieval-smoke, before the bench-regression gate"
    );
}

#[test]
fn bench_gate_times_the_fused_batch_retrieval_benches() {
    let root = env!("CARGO_MANIFEST_DIR");
    let gate = std::fs::read_to_string(format!("{root}/scripts/bench_gate.sh"))
        .expect("cannot read scripts/bench_gate.sh");
    assert!(
        gate.lines().any(|l| l.trim().starts_with("\"bench_retrieval|")),
        "scripts/bench_gate.sh must run bench_retrieval in its suite"
    );
    let bin = std::fs::read_to_string(format!("{root}/crates/bench/src/bin/bench_retrieval.rs"))
        .expect("cannot read bench_retrieval.rs");
    for name in ["retrieval/store_ivf/top64_batch", "retrieval/quant_i8/top64_batch"] {
        assert!(
            bin.contains(&format!("\"{name}{{BATCH}}\"")),
            "bench_retrieval must register {name}8: the fused serving-drain retrieval \
             path (DESIGN.md \u{a7}16) is gated by scripts/bench_gate.sh"
        );
    }
    assert!(bin.contains("const BATCH: usize = 8;"), "the gated retrieval batch is 8");
}

#[test]
fn every_script_a_ci_step_names_exists_and_no_script_is_orphaned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = script_steps();
    assert_eq!(
        script.get(2).map(String::as_str),
        Some("cargo run -q -p mb-lint"),
        "the lint stage must stay third, right after fmt and clippy"
    );
    // A step that runs a shell script names a file that exists.
    for step in &script {
        let program = step.split_whitespace().next().unwrap_or("");
        if program.ends_with(".sh") {
            assert!(root.join(program).is_file(), "CI step `{step}` names a missing script");
        }
    }
    // Every script under scripts/ is run by the gate or by another
    // script; ci.sh is the gate itself.
    let mut scripts: Vec<(String, String)> = std::fs::read_dir(root.join("scripts"))
        .expect("cannot list scripts/")
        .map(|e| e.expect("cannot read a scripts/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sh"))
        .map(|p| {
            let name = format!("scripts/{}", p.file_name().unwrap().to_string_lossy());
            (name, std::fs::read_to_string(&p).expect("cannot read a script"))
        })
        .collect();
    scripts.sort();
    assert!(scripts.iter().any(|(name, _)| name == "scripts/ci.sh"), "{scripts:?}");
    for (name, _) in scripts.iter().filter(|(name, _)| name != "scripts/ci.sh") {
        let stepped = script.iter().any(|step| step.split_whitespace().any(|w| w == name));
        let called = scripts.iter().any(|(other, text)| other != name && text.contains(name));
        assert!(stepped || called, "{name} is run by no CI step and no other script");
    }
}

#[test]
fn ci_script_includes_the_chaos_serve_stage() {
    let script = script_steps();
    assert!(
        script
            .iter()
            .any(|s| s == "cargo test --release -q -p mb-serve --test chaos -- --include-ignored"),
        "the chaos-serve stage must run the #[ignore]d mb-serve chaos suite in release"
    );
}
