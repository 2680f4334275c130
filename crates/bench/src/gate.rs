//! Bench-regression gate: judge the change against its merge-base from
//! paired runs on the same machine.
//!
//! `scripts/bench_gate.sh` builds the bench bins at the merge-base (in a
//! detached `git worktree`) and at the change, runs the same suite on
//! both sides in alternating pairs, and keeps every run's
//! `target/experiments/*.json` reports. [`judge`] forms each metric's
//! per-pair ratios change / parent. A metric regressed only when the
//! change is slower in so many pairs that a fair coin would get there
//! with probability at most `SIGN_ALPHA` (a one-sided sign test: every
//! one of 5 pairs, or 9 of 10) **and** its median ratio is above
//! [`MAX_RATIO`]. Both halves are needed: the sign test alone would fail
//! a consistent 2 % drift, and the ratio alone would fail unchanged code
//! whose noisy pairs happen to read high (one null run on a shared
//! 2-vCPU VM put two of 32 median ratios above 1.15, none slower in all
//! five pairs). Numbers pinned on another day cannot gate, because such
//! a machine drifts between sessions by more than any useful bound.
//! A metric present on only one side is listed and not judged, so
//! adding or retiring a benchmark never bricks CI.

use mb_serve::json::{self, Json};
use std::collections::BTreeMap;

/// A regressed metric's median change / parent ratio must exceed this.
pub const MAX_RATIO: f64 = 1.15;

/// The sign test's one-sided significance level (1/32 = all of 5 pairs).
pub(crate) const SIGN_ALPHA: f64 = 1.0 / 32.0;

/// One run's `name → median_ns`, merged over every report it wrote.
pub type Medians = BTreeMap<String, f64>;

/// Outcome of checking one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Not slower in enough pairs, or not by enough.
    Ok,
    /// Slower in enough pairs and by more than [`MAX_RATIO`].
    Regressed,
    /// Missing from some run on either side (listed, not judged).
    Unpaired,
}

/// One metric's per-pair ratios and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Benchmark name.
    pub name: String,
    /// change / parent per pair, in pair order; empty when unpaired.
    pub ratios: Vec<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl Check {
    /// Pairs in which the change was slower than the parent.
    pub fn slower(&self) -> usize {
        self.ratios.iter().filter(|&&r| r > 1.0).count()
    }

    /// The median of the per-pair ratios (`None` when unpaired).
    pub fn median_ratio(&self) -> Option<f64> {
        let mut r = self.ratios.clone();
        r.sort_by(f64::total_cmp);
        let n = r.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(r[n / 2]),
            _ => Some((r[n / 2 - 1] + r[n / 2]) / 2.0),
        }
    }
}

/// The fewest slower pairs out of `pairs` that a fair coin reaches with
/// probability at most [`SIGN_ALPHA`]; `None` when even all of them
/// would not (fewer than 5 pairs), so the gate could never fail.
fn min_slower(pairs: usize) -> Option<usize> {
    let outcomes = 2f64.powi(i32::try_from(pairs).ok()?);
    // `tail` counts the outcomes with at least `k` slower pairs.
    let (mut tail, mut choose) = (0.0, 1.0);
    for k in (0..=pairs).rev() {
        tail += choose;
        if tail / outcomes > SIGN_ALPHA {
            return (k < pairs).then_some(k + 1);
        }
        choose *= k as f64 / (pairs - k + 1) as f64;
    }
    Some(0)
}

/// Extract `name → median_ns` from one bench JSON report
/// (`{"kind":"bench","results":[{"name":…,"median_ns":…},…]}`, as
/// written by [`crate::harness::Harness::report`]).
///
/// # Errors
/// A human-readable message on malformed documents.
pub fn parse_bench_medians(bytes: &[u8]) -> Result<Medians, String> {
    let doc = json::parse(bytes)?;
    if doc.get("kind").and_then(Json::as_str) != Some("bench") {
        return Err("bench report must have \"kind\":\"bench\"".to_string());
    }
    let Some(Json::Arr(results)) = doc.get("results") else {
        return Err("missing array \"results\"".to_string());
    };
    let mut medians = BTreeMap::new();
    for entry in results {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("result entry missing string \"name\"")?;
        let median = entry
            .get("median_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result {name:?} missing numeric \"median_ns\""))?;
        medians.insert(name.to_string(), median);
    }
    Ok(medians)
}

/// Check every metric of any run, in name order; each pair is
/// `(parent, change)`.
///
/// # Errors
/// When there are too few pairs for the sign test ever to fire.
pub fn judge(pairs: &[(Medians, Medians)]) -> Result<Vec<Check>, String> {
    let need = min_slower(pairs.len())
        .ok_or_else(|| format!("{} pairs cannot fail a sign test at {SIGN_ALPHA}", pairs.len()))?;
    let mut names: Vec<&String> =
        pairs.iter().flat_map(|(parent, change)| parent.keys().chain(change.keys())).collect();
    names.sort();
    names.dedup();
    let checks = names.into_iter().map(|name| {
        let ratios: Option<Vec<f64>> = pairs
            .iter()
            .map(|(parent, change)| match (parent.get(name), change.get(name)) {
                (Some(&p), Some(&c)) if p > 0.0 => Some(c / p),
                _ => None,
            })
            .collect();
        let check =
            Check { name: name.clone(), ratios: ratios.unwrap_or_default(), verdict: Verdict::Ok };
        let verdict = match check.median_ratio() {
            None => Verdict::Unpaired,
            Some(m) if check.slower() >= need && m > MAX_RATIO => Verdict::Regressed,
            Some(_) => Verdict::Ok,
        };
        Check { verdict, ..check }
    });
    Ok(checks.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAIRS: usize = 5;

    /// `PAIRS` pairs whose parent reads `base`, and whose change reads
    /// `base` scaled per pair by `scale(pair, name)`.
    fn pairs(base: &Medians, scale: impl Fn(usize, &str) -> f64) -> Vec<(Medians, Medians)> {
        (0..PAIRS)
            .map(|i| {
                let change = base.iter().map(|(n, &ns)| (n.clone(), ns * scale(i, n))).collect();
                (base.clone(), change)
            })
            .collect()
    }

    fn base() -> Medians {
        [("matmul/blocked/64", 1000.0), ("inference/embed/frozen/batch8", 2000.0)]
            .map(|(name, ns)| (name.to_string(), ns))
            .into()
    }

    fn passes(checks: &[Check]) -> bool {
        checks.iter().all(|c| c.verdict != Verdict::Regressed)
    }

    fn check<'a>(checks: &'a [Check], name: &str) -> &'a Check {
        checks.iter().find(|c| c.name == name).expect("checked")
    }

    #[test]
    fn the_sign_test_needs_every_one_of_five_pairs_or_nine_of_ten() {
        assert_eq!(min_slower(4), None);
        assert_eq!(min_slower(5), Some(5));
        assert_eq!(min_slower(8), Some(8));
        assert_eq!(min_slower(9), Some(8));
        assert_eq!(min_slower(10), Some(9));
        assert!(judge(&pairs(&base(), |_, _| 2.0)[..4]).is_err());
    }

    #[test]
    fn seeded_30_percent_slowdown_fails() {
        // Every pair reads the change 1.28–1.32× slower: past the 1.15 ratio.
        let scale =
            |i: usize, n: &str| if n == "matmul/blocked/64" { 1.28 + 0.01 * i as f64 } else { 1.0 };
        let checks = judge(&pairs(&base(), scale)).expect("5 pairs");
        assert!(!passes(&checks));
        let bad = check(&checks, "matmul/blocked/64");
        assert_eq!(bad.verdict, Verdict::Regressed);
        assert_eq!(bad.slower(), PAIRS);
        assert!((bad.median_ratio().expect("paired") - 1.30).abs() < 1e-12);
        assert_eq!(check(&checks, "inference/embed/frozen/batch8").verdict, Verdict::Ok);
    }

    #[test]
    fn slowdown_within_budget_passes() {
        // Slower in every pair, but only by 1.10×; speedups are fine.
        let scale = |_: usize, n: &str| if n == "matmul/blocked/64" { 1.10 } else { 0.2 };
        let checks = judge(&pairs(&base(), scale)).expect("5 pairs");
        assert!(passes(&checks));
        assert_eq!(check(&checks, "matmul/blocked/64").slower(), PAIRS);
    }

    #[test]
    fn identical_reports_pass() {
        let checks = judge(&pairs(&base(), |_, _| 1.0)).expect("5 pairs");
        assert!(passes(&checks));
        assert!(checks.iter().all(|c| c.slower() == 0 && c.median_ratio() == Some(1.0)));
    }

    #[test]
    fn one_faster_pair_of_five_passes_the_sign_test() {
        // A median ratio of 1.5, but pair 2 reads the change faster.
        let scale = |i: usize, _: &str| if i == 2 { 0.95 } else { 1.5 };
        let checks = judge(&pairs(&base(), scale)).expect("5 pairs");
        assert!(passes(&checks));
        let c = check(&checks, "matmul/blocked/64");
        assert_eq!((c.slower(), c.median_ratio()), (PAIRS - 1, Some(1.5)));
    }

    #[test]
    fn missing_metrics_warn_but_do_not_fail() {
        let mut all = pairs(&base(), |_, _| 2.0);
        for (parent, change) in &mut all {
            change.remove("inference/embed/frozen/batch8");
            change.insert("brand/new/bench".to_string(), 5.0);
            parent.remove("matmul/blocked/64");
        }
        // Paired in one of the five pairs only: still not judged.
        all[0].1.insert("inference/embed/frozen/batch8".to_string(), 9e9);
        let checks = judge(&all).expect("5 pairs");
        assert!(passes(&checks));
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.verdict == Verdict::Unpaired && c.ratios.is_empty()));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_bench_medians(b"{\"kind\":\"table\"}").is_err());
        assert!(parse_bench_medians(b"not json").is_err());
    }

    #[test]
    fn bench_report_medians_parse() {
        let doc = br#"{"kind":"bench","file":"BENCH_x","results":[
            {"name":"a/b","iters_per_sample":3,"samples":5,"median_ns":12.5,
             "p95_ns":14.0,"mean_ns":13.0,"stddev_ns":0.5,"min_ns":12.0,"max_ns":15.0},
            {"name":"c/d","iters_per_sample":1,"samples":5,"median_ns":7.0,
             "p95_ns":9.0,"mean_ns":8.0,"stddev_ns":1.0,"min_ns":6.0,"max_ns":10.0}]}"#;
        let medians = parse_bench_medians(doc).expect("well-formed");
        assert_eq!(medians.len(), 2);
        assert_eq!(medians["a/b"], 12.5);
        assert_eq!(medians["c/d"], 7.0);
    }
}
