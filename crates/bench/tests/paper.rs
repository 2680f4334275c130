//! The claim table is live: each claim can fail (a bypassed rewriter,
//! uniform meta weights, shuffled tags, swapped rows), a
//! `not-reproduced` claim that starts holding fails too, and sharing a
//! trained row changes nothing. The tests that train run at `--check`
//! scale and are `#[ignore]`d in debug; CI's `bench-smoke` stage runs
//! them in release.

use mb_bench::paper::{
    context, evaluate, fig4_out, fig4_stats, Artifact, Claim, Numbers, Run, Verdict, ARTIFACTS,
    SEEDS,
};
use mb_common::Rng;
use mb_core::pipeline::{train, DataSource, Method};
use mb_core::reweight::MetaModel;
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::input::TrainPair;
use mb_par::Threads;
use mb_tensor::params::GradVec;
use mb_tensor::Params;
use std::process::Command;

fn artifact(id: &str) -> &'static Artifact {
    ARTIFACTS.iter().find(|a| a.id == id).expect("artifact id")
}

fn claim(id: &str) -> &'static Claim {
    ARTIFACTS.iter().flat_map(|a| a.claims).find(|c| c.id == id).expect("claim id")
}

fn flipped(verdicts: &[Verdict]) -> Vec<&'static str> {
    verdicts.iter().filter(|v| v.flipped()).map(|v| v.claim.id).collect()
}

/// Table V / VI-shaped numbers: U.Acc per row, in the table's row order.
fn fewshot_numbers(domains: [(&str, [f64; 7]); 2]) -> Numbers {
    let rows = [
        "Name Matching",
        "BLINK/Seed",
        "BLINK/Syn",
        "BLINK/Syn+Seed",
        "DL4EL/Syn+Seed",
        "MetaBLINK/Syn+Seed",
        "MetaBLINK/Syn*+Seed",
    ];
    let mut n = Numbers::default();
    for (d, accs) in domains {
        for (row, acc) in rows.iter().zip(accs) {
            n.put(format!("{d}|{row}|U.Acc"), &[acc]);
        }
    }
    n
}

#[test]
fn feeding_the_seed_row_as_metablink_fails_t5_meta_ge_blink() {
    let measured = [
        ("Forgotten Realms", [13.00, 28.17, 24.67, 33.83, 30.17, 35.83, 35.33]),
        ("Lego", [11.56, 25.96, 31.16, 36.35, 35.01, 36.52, 35.01]),
    ];
    let c = claim("T5.meta_ge_blink");
    assert!(c.smallest_gap(&fewshot_numbers(measured)).0 >= c.margin);
    let swapped = measured.map(|(d, mut accs)| {
        accs[5] = accs[1];
        (d, accs)
    });
    let (gap, _) = c.smallest_gap(&fewshot_numbers(swapped));
    assert!(gap < c.margin, "BLINK/Seed's numbers passed as MetaBLINK's: gap {gap}");
}

#[test]
fn a_not_reproduced_claim_that_starts_holding_fails_the_run() {
    let c = claim("T6.meta_ge_blink");
    assert!(c.not_reproduced.is_some());
    let judge = |n: &Numbers| {
        let (measured, seeds) = c.smallest_gap(n);
        Verdict { claim: c, measured, seeds }
    };
    let head = [
        ("Star Trek", [15.06, 21.16, 23.50, 27.75, 26.43, 28.14, 28.28]),
        ("YuGiOh", [15.34, 24.85, 25.08, 32.30, 31.45, 31.45, 30.82]),
    ];
    assert!(!judge(&fewshot_numbers(head)).flipped(), "HEAD's numbers: still not reproduced");
    let better = head.map(|(d, mut accs)| {
        accs[5] = accs[3] + 1.0;
        (d, accs)
    });
    assert!(judge(&fewshot_numbers(better)).flipped(), "passing numbers must fail the run");
}

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("spawn paper")
}

#[test]
fn the_runner_rejects_arguments_it_does_not_know() {
    for bad in ["--chekc", "table55"] {
        let out = paper(&[bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(bad), "{bad}: {stderr}");
        assert!(stderr.contains("fig1") && stderr.contains("table11"), "ids listed: {stderr}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains; run in release by the bench-smoke stage")]
fn a_bypassed_rewriter_fails_the_rewriting_claims() {
    let mut ctx = context();
    for (_, syn) in ctx.syn.iter_mut().chain(&mut ctx.syn_star) {
        syn.rewritten = syn.exact.clone();
    }
    let mut run = Run::new(&ctx, true);
    let mut verdicts = evaluate(artifact("table10"), &mut run).1;
    verdicts.extend(evaluate(artifact("table11"), &mut run).1);
    // Syn is Exact Match now, so the recall claim HEAD misses "holds" at
    // its margin of 0 — a flip too, in the other direction.
    let expected = ["T10.syn_nacc_gt_exact", "T10.syn_recall_gt_exact", "T11.syn_gt_exact"];
    assert_eq!(flipped(&verdicts), expected);
}

/// A bi-encoder whose every example gradient is the batch's first: the
/// meta weights come out uniform, so nothing is selected by quality.
struct Uniform(BiEncoder);

impl MetaModel for Uniform {
    type Example = TrainPair;
    const MIN_SYN_BATCH: usize = BiEncoder::MIN_SYN_BATCH;

    fn params(&self) -> &Params {
        self.0.params()
    }
    fn params_mut(&mut self) -> &mut Params {
        self.0.params_mut()
    }
    fn embedding_param_index(&self) -> usize {
        self.0.embedding_param_index()
    }
    fn example_grads(&self, batch: &[&TrainPair], threads: Threads) -> Vec<(f64, GradVec)> {
        let grads = self.0.example_grads(batch, threads);
        vec![grads[0].clone(); grads.len()]
    }
    fn seed_grad(&self, batch: &[&TrainPair], threads: Threads) -> GradVec {
        self.0.seed_grad(batch, threads)
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains; run in release by the bench-smoke stage")]
fn uniform_weights_and_shuffled_tags_fail_figure_4() {
    let ctx = context();
    let c = claim("F4.bad_below_normal");
    let gap = |stats, is_bad: &[bool]| c.smallest_gap(&fig4_out(stats, is_bad).nums).0;

    let (stats, mut is_bad) = fig4_stats(&ctx, |m| m);
    assert!(gap(&stats, &is_bad) >= c.margin, "the claim holds on the real trainer");
    Rng::seed_from_u64(9).shuffle(&mut is_bad);
    assert!(gap(&stats, &is_bad) < c.margin, "shuffled is_bad tags carry no signal");

    let (stats, is_bad) = fig4_stats(&ctx, Uniform);
    assert!(gap(&stats, &is_bad) < c.margin, "uniform weights select nothing by quality");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains; run in release by the bench-smoke stage")]
fn a_shared_row_equals_a_fresh_train_of_the_same_key() {
    let ctx = context();
    let mut run = Run::new(&ctx, true);
    // The breakdown trains the row and keeps its model; Table V and the
    // ablations then read the shared metrics.
    evaluate(artifact("breakdown"), &mut run);
    let shared = run.metrics((false, "Lego", Method::MetaBlink, DataSource::SynSeed, SEEDS[0]));
    let task = ctx.task("Lego");
    let fresh = train(&task, Method::MetaBlink, DataSource::SynSeed, &run.config(SEEDS[0]))
        .evaluate(&task, run.test("Lego"));
    assert_eq!(shared.unnormalized_acc.to_bits(), fresh.unnormalized_acc.to_bits());
    assert_eq!(shared, fresh);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains; run in release by the bench-smoke stage")]
fn check_output_is_byte_identical_across_two_runs() {
    // The three zero-shot tables share one grid of trained rows; the
    // stage's own `paper --check` is the run over every artifact.
    let args = ["--check", "table7", "table8", "table9"];
    let runs: Vec<_> = (0..2).map(|_| std::thread::spawn(move || paper(&args))).collect();
    let outs: Vec<_> = runs.into_iter().map(|r| r.join().expect("paper --check")).collect();
    let text = String::from_utf8_lossy(&outs[0].stdout);
    assert!(outs[0].status.success(), "paper --check must pass at HEAD:\n{text}");
    assert!(text.contains(" — 0 flipped"), "{text}");
    assert_eq!(outs[0].stdout, outs[1].stdout);
}
