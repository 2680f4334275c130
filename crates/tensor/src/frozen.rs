//! The forward kernels of the encoder ops, and frozen parameters.
//!
//! [`linear`], [`tanh`], [`row_l2_normalize`], `bag_embed` and
//! `rows_dot` are the **only** forward arithmetic for those ops: the
//! [`crate::Tape`] ops of the same names call them and record just the
//! `Op` their backward needs, so a tape-built forward and a tape-free
//! one are the same function calls and agree bit for bit at any thread
//! count; a row-at-a-time forward calls their row forms,
//! [`bag_embed_row`] and [`dot`]. The mean-pooling loop (f64 and int8)
//! is written once, in `pool_row`.
//!
//! [`FrozenParams`] is the serving-side parameter container: an
//! immutable snapshot shared via [`Arc`], so a forward over it clones
//! no parameter tensor and records no tape node (`Params::inject`
//! borrows every parameter as a tape leaf, which only a training step
//! needs). The `tape-free` mb-lint rule keeps tape construction and
//! parameter cloning out of the inference path statically.

use crate::params::{ParamId, Params};
use crate::tensor::Tensor;
use mb_par::Threads;
use std::sync::Arc;

/// An immutable, cheaply shareable snapshot of a [`Params`] set.
///
/// Freezing clones each parameter tensor exactly once; afterwards
/// every handle (worker threads, linkers, benches) is an `Arc` bump.
/// Tensors keep their [`ParamId`] indices, so ids minted by the source
/// `Params` resolve unchanged.
#[derive(Debug, Clone)]
pub struct FrozenParams {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    tensors: Vec<Tensor>,
}

impl FrozenParams {
    /// Snapshot `params`: the single clone of the model's lifetime.
    pub fn freeze(params: &Params) -> Self {
        let tensors = params.iter().map(|(_, t)| t.clone()).collect();
        FrozenParams { inner: Arc::new(Inner { tensors }) }
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.inner.tensors.len()
    }

    /// True when the snapshot holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.inner.tensors.is_empty()
    }

    /// Total number of scalar elements across all tensors.
    pub fn numel(&self) -> usize {
        self.inner.tensors.iter().map(Tensor::numel).sum()
    }

    /// The tensor a [`ParamId`] resolves to (same index as in the
    /// source [`Params`]).
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.inner.tensors[id.index()]
    }

    /// True when both handles point at one shared snapshot (no copy
    /// happened between them).
    pub fn shares_storage(&self, other: &FrozenParams) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Affine map `x @ w + b` (bias broadcast over rows).
///
/// # Panics
/// Panics unless `x: [n, f]`, `w: [f, o]`, `b: [o]`.
pub fn linear(x: &Tensor, w: &Tensor, b: &Tensor, threads: Threads) -> Tensor {
    assert_eq!(b.rank(), 1, "linear: bias must be rank-1, got {:?}", b.shape());
    assert_eq!(w.shape()[1], b.shape()[0], "linear: w {:?} vs b {:?}", w.shape(), b.shape());
    let mut y = x.matmul_with(w, threads);
    let o = b.shape()[0];
    for i in 0..y.rows() {
        for (yj, bj) in y.row_mut(i).iter_mut().zip(&b.data()[..o]) {
            *yj += *bj;
        }
    }
    y
}

/// Elementwise hyperbolic tangent.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f64::tanh)
}

/// Row-wise L2 normalisation: each row is divided by
/// `max(‖row‖₂, eps)`.
pub fn row_l2_normalize(x: &Tensor, eps: f64) -> Tensor {
    assert_eq!(x.rank(), 2, "row_l2_normalize: rank-2 required, got {:?}", x.shape());
    let mut y = x.clone();
    for i in 0..y.rows() {
        let row = y.row_mut(i);
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt().max(eps);
        for v in row {
            *v /= norm;
        }
    }
    y
}

/// The mean-pooling loop of every embedding-bag lookup: `out` becomes
/// the mean of the table rows listed in `bag` (zero for an empty bag).
/// `add_row(out, id, inv)` adds `inv ×` table row `id` into `out`; the
/// element type of the table (f64 / int8) is the caller's business.
///
/// # Panics
/// Panics unless `out` is `dim` long, or if any id is `>= vocab`.
pub(crate) fn pool_row(
    (vocab, dim): (usize, usize),
    bag: &[u32],
    out: &mut [f64],
    add_row: impl Fn(&mut [f64], usize, f64),
) {
    assert_eq!(out.len(), dim, "bag_embed: output row of {} for dim {dim}", out.len());
    out.fill(0.0);
    let inv = 1.0 / bag.len() as f64;
    for &id in bag {
        let id = id as usize;
        assert!(id < vocab, "bag_embed: token id {id} out of vocab {vocab}");
        add_row(out, id, inv);
    }
}

/// [`bag_embed_row`] of every bag → `[bags.len(), dim]`.
pub(crate) fn bag_embed(table: &Tensor, bags: &[impl AsRef<[u32]>]) -> Tensor {
    let mut out = Tensor::zeros(vec![bags.len(), table.cols()]);
    for (i, bag) in bags.iter().enumerate() {
        bag_embed_row(table, bag.as_ref(), out.row_mut(i));
    }
    out
}

/// Mean-pooled embedding-bag lookup of one bag over a `[vocab, dim]`
/// table into `out` (zeros for an empty bag).
///
/// # Panics
/// Panics on a mis-shaped table or row, or an out-of-range id.
pub fn bag_embed_row(table: &Tensor, bag: &[u32], out: &mut [f64]) {
    let dim = table.cols();
    pool_row((table.rows(), dim), bag, out, |row, id, inv| {
        for (r, e) in row.iter_mut().zip(&table.data()[id * dim..(id + 1) * dim]) {
            *r += inv * e;
        }
    });
}

/// `Σ aᵢ·bᵢ` as one `Sum` of the products: a `rows_dot` row.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Row-wise dot product of two `[n, d]` tensors → `[n]`.
pub(crate) fn rows_dot(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "rows_dot: {:?} vs {:?}", a.shape(), b.shape());
    assert_eq!(a.rank(), 2, "rows_dot: rank-2 required");
    Tensor::from_vec(vec![a.rows()], (0..a.rows()).map(|i| dot(a.row(i), b.row(i))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::Rng;

    fn assert_bits_eq(got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape());
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn frozen_params_share_storage_and_keep_ids() {
        let mut rng = Rng::seed_from_u64(7);
        let mut params = Params::default();
        let a = params.add("emb", Tensor::randn(vec![10, 4], 0.0, 1.0, &mut rng));
        let b = params.add("w", Tensor::randn(vec![4, 4], 0.0, 1.0, &mut rng));
        let frozen = FrozenParams::freeze(&params);
        assert_eq!(frozen.len(), 2);
        assert!(!frozen.is_empty());
        assert_eq!(frozen.numel(), params.numel());
        assert_bits_eq(frozen.get(a), params.get(a));
        assert_bits_eq(frozen.get(b), params.get(b));
        let handle = frozen.clone();
        assert!(handle.shares_storage(&frozen));
        assert!(!FrozenParams::freeze(&params).shares_storage(&frozen));
    }
}
