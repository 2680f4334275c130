//! Tape-free forward-only inference over frozen parameters.
//!
//! The training forward injects every parameter tensor — embedding
//! tables included — into a fresh [`crate::Tape`] per batch
//! (`Params::inject` clones each tensor into a leaf node), which is
//! pure overhead when no gradient will ever be taken. This module is
//! the serving-side alternative: an immutable [`FrozenParams`]
//! snapshot shared via [`Arc`] (zero per-forward clones, zero
//! allocations beyond the activations) plus free-function forward ops.
//!
//! ## Bit-identity contract
//!
//! Every op here reproduces the arithmetic of the corresponding
//! [`crate::Tape`] op **verbatim** — same kernels, same accumulation
//! order, same broadcast loops — so a frozen forward is bit-identical
//! to the tape forward at any thread count. The unit tests below and
//! the `tests/proptest_frozen.rs` property suite pin that equivalence;
//! the `tape-free` mb-lint rule keeps tape construction and parameter
//! cloning out of the serving path statically.

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
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl FrozenParams {
    /// Snapshot `params`: the single clone of the model's lifetime.
    pub fn freeze(params: &Params) -> Self {
        let (names, tensors) = params.iter().map(|(n, t)| (n.to_string(), t.clone())).unzip();
        FrozenParams { inner: Arc::new(Inner { names, tensors }) }
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

    /// Name/tensor pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.inner.names.iter().map(String::as_str).zip(self.inner.tensors.iter())
    }

    /// True when both handles point at one shared snapshot (no copy
    /// happened between them).
    pub fn shares_storage(&self, other: &FrozenParams) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Forward-only affine map `x @ w + b` (bias broadcast over rows);
/// bit-identical to the tape's `linear`.
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

/// Forward-only elementwise hyperbolic tangent; bit-identical to the
/// tape's `tanh`.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f64::tanh)
}

/// Forward-only row-wise L2 normalisation (each row divided by
/// `max(‖row‖₂, eps)`); bit-identical to the tape's
/// `row_l2_normalize`.
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

/// Forward-only mean-pooled embedding-bag lookup over a `[vocab, dim]`
/// table; bit-identical to the tape's `bag_embed`. Empty bags yield
/// zero rows.
///
/// # Panics
/// Panics if any id is out of range.
pub fn bag_embed(table: &Tensor, bags: &[impl AsRef<[u32]>]) -> Tensor {
    assert_eq!(table.rank(), 2, "bag_embed: table must be rank-2, got {:?}", table.shape());
    let (vocab, dim) = (table.shape()[0], table.shape()[1]);
    let mut out = Tensor::zeros(vec![bags.len(), dim]);
    for (i, bag) in bags.iter().map(AsRef::as_ref).enumerate() {
        if bag.is_empty() {
            continue;
        }
        let inv = 1.0 / bag.len() as f64;
        let row = out.row_mut(i);
        for &id in bag {
            let id = id as usize;
            assert!(id < vocab, "bag_embed: token id {id} out of vocab {vocab}");
            let emb = &table.data()[id * dim..(id + 1) * dim];
            for (r, e) in row.iter_mut().zip(emb) {
                *r += inv * e;
            }
        }
    }
    out
}

/// Forward-only row-wise dot product of two `[n, d]` tensors → `[n]`;
/// bit-identical to the tape's `rows_dot`.
pub fn rows_dot(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "rows_dot: {:?} vs {:?}", a.shape(), b.shape());
    assert_eq!(a.rank(), 2, "rows_dot: rank-2 required");
    let n = a.rows();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        *o = a.row(i).iter().zip(b.row(i)).map(|(x, y)| x * y).sum();
    }
    Tensor::from_vec(vec![n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
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
        assert_eq!(frozen.iter().map(|(n, _)| n).collect::<Vec<_>>(), vec!["emb", "w"]);
        let handle = frozen.clone();
        assert!(handle.shares_storage(&frozen));
        assert!(!FrozenParams::freeze(&params).shares_storage(&frozen));
    }

    #[test]
    fn linear_is_bit_identical_to_tape() {
        let mut rng = Rng::seed_from_u64(11);
        let x = Tensor::randn(vec![7, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(vec![5, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(vec![3], 0.0, 1.0, &mut rng);
        for t in [1usize, 2, 4] {
            let threads = mb_par::Threads::new(t);
            let mut tape = Tape::with_threads(threads);
            let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(b.clone()));
            let out = tape.linear(xv, wv, bv);
            let want = tape.value(out).clone();
            assert_bits_eq(&linear(&x, &w, &b, threads), &want);
        }
    }

    #[test]
    fn pointwise_ops_are_bit_identical_to_tape() {
        let mut rng = Rng::seed_from_u64(13);
        let mut x = Tensor::randn(vec![6, 8], 0.0, 2.0, &mut rng);
        // An all-zero row exercises the eps branch of the normaliser.
        for v in x.row_mut(2) {
            *v = 0.0;
        }
        let y = Tensor::randn(vec![6, 8], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let yv = tape.leaf(y.clone());
        let (th, no, dt) = (tape.tanh(xv), tape.row_l2_normalize(xv, 1e-9), tape.rows_dot(xv, yv));
        let want_tanh = tape.value(th).clone();
        let want_norm = tape.value(no).clone();
        let want_dot = tape.value(dt).clone();
        assert_bits_eq(&tanh(&x), &want_tanh);
        assert_bits_eq(&row_l2_normalize(&x, 1e-9), &want_norm);
        assert_bits_eq(&rows_dot(&x, &y), &want_dot);
    }

    #[test]
    fn bag_embed_is_bit_identical_to_tape() {
        let mut rng = Rng::seed_from_u64(17);
        let table = Tensor::randn(vec![12, 4], 0.0, 1.0, &mut rng);
        // Repeated ids, an empty bag, and singleton bags.
        let bags: Vec<Vec<u32>> = vec![vec![0, 3, 3, 11], vec![], vec![5], vec![2, 1, 0]];
        let mut tape = Tape::new();
        let tv = tape.leaf(table.clone());
        let bv = tape.bag_embed(tv, bags.clone());
        let want = tape.value(bv).clone();
        assert_bits_eq(&bag_embed(&table, &bags), &want);
    }
}
