//! Property tests for the quantized retrieval error contract on
//! adversarial *near-tie* score distributions — entity vectors built so
//! exact scores bunch within tiny margins of each other, the worst case
//! for a lossy table. Two guarantees are pinned (DESIGN.md §12):
//!
//! 1. the int8 score error never exceeds an analytic bound (half a
//!    quantization step per element, summed over the dot), and
//! 2. whenever the exact top-k margin exceeds twice that bound, the
//!    quantized top-k agrees with f32 scoring *exactly* — lossy
//!    storage may only reorder candidates the exact scores could not
//!    separate by more than the guaranteed error.

mod support;

use mb_check::gen;
use mb_check::{prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_encoders::retrieval::CandidateSource;
use mb_encoders::{DenseIndex, QuantizedIndex};
use mb_kb::EntityId;
use mb_tensor::quant::QuantI8;
use mb_tensor::Tensor;
use support::{reference_scores, Table};

/// Rows that are small perturbations of one base direction: every pair
/// of scores is a near tie by construction.
fn near_tie_vectors(n: usize, dim: usize, spread: f64, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let base: Vec<f64> = (0..dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        for b in &base {
            data.push(b + (rng.f64() * 2.0 - 1.0) * spread);
        }
    }
    Tensor::from_vec(vec![n, dim], data)
}

fn row_ids(n: usize) -> Vec<EntityId> {
    (0..n as u32).map(EntityId).collect()
}

/// The int8 index over `table`, the raw table the reference fold
/// scores (`mb_tensor::quant`).
fn int8_index(table: &QuantI8) -> QuantizedIndex {
    QuantizedIndex::from_i8([table], row_ids(table.rows())).expect("aligned")
}

/// Worst-case absolute score error of a lossy `table` against the
/// exact `vectors` for a given query: int8 stores each element within
/// half a per-row step; a dot accumulates at most the sum of
/// per-element bounds (plus float-rounding headroom).
fn error_bound(vectors: &Tensor, table: Table<'_>, query: &[f64]) -> f64 {
    let exact = reference_scores(Table::F64(vectors), query);
    let lossy = reference_scores(table, query);
    exact.iter().zip(&lossy).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
}

mb_check::check! {
    #![config(cases = 32)]

    fn quantized_scores_stay_within_the_analytic_bound(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (n, dim) = (8 + rng.below(56), 4 + rng.below(28));
        let vectors = near_tie_vectors(n, dim, 1e-3, seed ^ 1);
        let int8 = QuantI8::from_tensor(&vectors);
        let query: Vec<f64> = (0..dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
        let q1 = |v: f64| v.abs();
        let query_l1: f64 = query.iter().copied().map(q1).sum();
        let per_elem = 1.0 / 127.0;
        // Elements are bounded by ~1 + spread, so per-element error is
        // ≤ per_elem·max_abs; the dot accumulates ≤ l1(query) of it,
        // and int8 additionally quantizes the query itself.
        let bound = 2.5 * per_elem * (query_l1 + dim as f64);
        let worst = error_bound(&vectors, Table::Int8(&int8), &query);
        prop_assert!(
            worst <= bound,
            "worst={} bound={} n={} dim={}", worst, bound, n, dim
        );
    }

    fn top_k_agrees_exactly_when_the_margin_clears_the_error(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (n, dim, k) = (10 + rng.below(50), 4 + rng.below(24), 1 + rng.below(8));
        // Spreads from genuinely adversarial (scores within ~1e-4 of
        // each other) to comfortably separated.
        let spread = [1e-4, 1e-3, 1e-2, 1e-1][rng.below(4)];
        let vectors = near_tie_vectors(n, dim, spread, seed ^ 2);
        let index = DenseIndex::try_from_vectors(vectors.clone(), row_ids(n)).expect("one id per row");
        let int8 = QuantI8::from_tensor(&vectors);
        let query: Vec<f64> = (0..dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
        let exact_top = index.top_k(&query, k);
        prop_assert_eq!(exact_top.len(), k.min(n));
        let exact_scores = reference_scores(Table::F64(&vectors), &query);
        let mut sorted = exact_scores.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let worst = error_bound(&vectors, Table::Int8(&int8), &query);
        let quant_top = int8_index(&int8).top_k(&query, k);
        prop_assert_eq!(quant_top.len(), exact_top.len());
        let margin = sorted[k.min(n) - 1] - sorted.get(k.min(n)).copied()
            .unwrap_or(f64::NEG_INFINITY);
        if margin > 2.0 * worst {
            // The k-th/(k+1)-th gap exceeds any possible score
            // perturbation: top-k *membership* must agree exactly
            // (ranks inside the top-k may still swap on near-ties).
            let mut want: Vec<u32> = exact_top.iter().map(|&(id, _)| id.0).collect();
            let mut got: Vec<u32> = quant_top.iter().map(|&(id, _)| id.0).collect();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(
                &want, &got,
                "margin={} worst={} spread={}", margin, worst, spread
            );
        } else {
            // Inside the error band only near-ties may swap: every
            // quantized pick's exact score is within 2·worst of the
            // exact k-th score.
            let kth = sorted[k.min(n) - 1];
            for &(id, _) in &quant_top {
                let s = exact_scores[id.0 as usize];
                prop_assert!(
                    s >= kth - 2.0 * worst,
                    "id={} score={} kth={} worst={}", id.0, s, kth, worst
                );
            }
        }
    }
}
