//! The retrieval oracle the scan is checked against: score every row
//! with the reference folds, sort everything, take the first `k`. It
//! shares no code with `mb_encoders::retrieval` — no blocks, no
//! selectors, no transposed queries.

#![allow(dead_code)] // each suite uses its own subset

use mb_tensor::quant::QuantI8;
use mb_tensor::Tensor;

/// A table the oracle can score, one variant per scan element type.
#[derive(Clone, Copy)]
pub enum Table<'a> {
    F64(&'a Tensor),
    Int8(&'a QuantI8),
}

/// `query` against every row: the naive in-order f64 dot, or the
/// `mb_tensor` reference fold for the int8 table.
pub fn reference_scores(table: Table<'_>, query: &[f64]) -> Vec<f64> {
    match table {
        Table::F64(t) => {
            (0..t.rows()).map(|i| t.row(i).iter().zip(query).map(|(a, b)| a * b).sum()).collect()
        }
        Table::Int8(t) => t.score_all(query),
    }
}

/// The `k` best `(row, score bits)` under the retrieval contract: NaN
/// scores are never returned; the kept rows are the first `k` of a full
/// stable sort by score descending, where exact ties (`-0.0 == +0.0`)
/// keep ascending row order; and they are listed by `total_cmp`
/// descending, ties again by row.
pub fn reference_top_k(table: Table<'_>, query: &[f64], k: usize) -> Vec<(u32, u64)> {
    let scores = reference_scores(table, query);
    // `+ 0.0` turns `-0.0` into `+0.0`, so the two tie under `total_cmp`.
    let tied = |i: usize| scores[i] + 0.0;
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| !scores[i].is_nan()).collect();
    order.sort_by(|&a, &b| tied(b).total_cmp(&tied(a)));
    order.truncate(k);
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    order.into_iter().map(|i| (i as u32, scores[i].to_bits())).collect()
}
