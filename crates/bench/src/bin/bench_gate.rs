//! Bench-regression gate CLI: judge paired bench reports of the change
//! against its merge-base and exit non-zero when any metric regressed.
//!
//! ```text
//! bench_gate DIR    # DIR/1/parent/*.json, DIR/1/change/*.json, DIR/2/…
//! ```
//!
//! `scripts/bench_gate.sh` runs the suite in alternating pairs and lays
//! out DIR; the rule is in `mb_bench::gate`. Every metric is printed
//! with its slower-pair count and its median change / parent ratio.

use mb_bench::gate::{self, Medians, Verdict, MAX_RATIO};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: bench_gate DIR   (DIR/<pair>/{{parent,change}}/*.json, pairs 1, 2, …)");
        return ExitCode::FAILURE;
    };
    match run(Path::new(dir)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Judge every pair under `dir`; `Ok(false)` when a metric regressed.
fn run(dir: &Path) -> Result<bool, String> {
    let mut pairs = Vec::new();
    for i in 1.. {
        let pair = dir.join(i.to_string());
        if !pair.is_dir() {
            break;
        }
        pairs.push((read_side(&pair.join("parent"))?, read_side(&pair.join("change"))?));
    }
    let checks = gate::judge(&pairs)?;
    println!(
        "bench_gate: {} pairs under {}; change / parent per pair, in pair order",
        pairs.len(),
        dir.display()
    );
    let mut regressed = 0usize;
    for c in &checks {
        let Some(median) = c.median_ratio() else {
            println!("  unpaired  {:<44} not in every run on both sides; not judged", c.name);
            continue;
        };
        let label = if c.verdict == Verdict::Regressed { "REGRESSED" } else { "ok" };
        regressed += usize::from(c.verdict == Verdict::Regressed);
        let ratios: Vec<String> = c.ratios.iter().map(|r| format!("{r:.3}")).collect();
        println!(
            "  {label:<9} {:<44} slower {}/{}  median {median:.3}  [{}]",
            c.name,
            c.slower(),
            c.ratios.len(),
            ratios.join(" ")
        );
    }
    if regressed > 0 {
        eprintln!(
            "bench_gate: {regressed} metric(s) slower in too many pairs for chance and by a \
             median ratio above {MAX_RATIO}"
        );
        return Ok(false);
    }
    println!("bench_gate: no metric regressed (median ratio limit {MAX_RATIO})");
    Ok(true)
}

/// Merge the medians of every `*.json` bench report in one run's directory.
fn read_side(dir: &Path) -> Result<Medians, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut medians = Medians::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let bytes =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            medians.extend(
                gate::parse_bench_medians(&bytes)
                    .map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
    }
    if medians.is_empty() {
        return Err(format!("{} holds no bench report", dir.display()));
    }
    Ok(medians)
}
