//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`Var`]s (handles into
//! the tape) and computes exact gradients with one reverse sweep. The op
//! set is purpose-built for the MetaBLINK reproduction and includes
//! fused operators for the paper's losses, which keeps graphs tiny and
//! backward passes cheap — important because the meta-learning step in
//! `mb-core` runs one backward pass *per synthetic example* to obtain
//! the per-example gradients of Eq. 12.
//!
//! The forward value of `linear`, `tanh`, `row_l2_normalize`,
//! `bag_embed` and `rows_dot` — the ops both encoders are made of — is
//! computed by the tape-free kernels in [`crate::frozen`]; the tape only
//! records what their backward needs. Inference calls the same kernels
//! without a tape, so there is one forward implementation.
//!
//! Gradients are accumulated in node-creation order reversed, which is a
//! valid topological order because an op can only reference previously
//! created vars.
//!
//! A leaf either owns its value or borrows it ([`Tape::leaf`] takes
//! both): a model's parameters are read in place, never copied into the
//! tape, which is what the `'p` on [`Tape`] is for. The gradient of a
//! `bag_embed` table is row-sparse ([`crate::grad`]); nothing on a tape
//! allocates, fills or folds a table-sized buffer.

use crate::frozen;
use crate::grad::{Grad, RowGrad};
use crate::tensor::Tensor;
use mb_common::util::log_sum_exp;
use std::borrow::Cow;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The recorded operation producing a node's value.
#[derive(Debug, Clone)]
enum Op {
    /// An input (parameter or constant); has no parents.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    MulElem(Var, Var),
    /// Multiply by a compile-time constant.
    Scale(Var, f64),
    /// `a @ b` for rank-2 operands.
    Matmul(Var, Var),
    /// `a @ bᵀ` — the bi-encoder score matrix kernel.
    MatmulT(Var, Var),
    /// `x @ w + b` with `b` broadcast over rows.
    Linear {
        x: Var,
        w: Var,
        b: Var,
    },
    Tanh(Var),
    /// Mean over all elements, producing a scalar.
    MeanAll(Var),
    /// Sum over all elements, producing a scalar.
    SumAll(Var),
    /// Row-wise L2 normalisation with an epsilon floor.
    RowL2Normalize {
        x: Var,
        eps: f64,
    },
    /// Mean-pooled embedding-bag lookup: row i of the output is the mean
    /// of the `table` rows of bag i (zero vector for empty bags).
    /// `rows` are the distinct token ids of all bags, ascending — the
    /// rows of the table's gradient — and `bags[i]` lists bag i's tokens
    /// in their original order as positions in `rows`.
    BagEmbed {
        table: Var,
        rows: Vec<u32>,
        bags: Vec<Vec<u32>>,
    },
    /// Row-wise dot product of two `[n, d]` tensors, producing `[n]`.
    RowsDot(Var, Var),
    /// The paper's Eq. 6 in-batch negative loss over an `[n, n]` score
    /// matrix whose diagonal holds the gold scores; produces `[n]`
    /// per-example losses. When `exclude_gold` is true the denominator
    /// omits the gold entity (as printed in the paper).
    InBatchNegLoss {
        scores: Var,
        exclude_gold: bool,
    },
    /// Per-row softmax cross-entropy: `[n, k]` logits and a gold column
    /// per row; produces `[n]` losses. Used by the cross-encoder ranker.
    SoftmaxCrossEntropyRows {
        logits: Var,
        targets: Vec<usize>,
    },
    /// Numerically-stable binary cross-entropy with logits; elementwise,
    /// produces a tensor of per-element losses.
    BceWithLogits {
        logits: Var,
        targets: Vec<f64>,
    },
    /// `Σᵢ wᵢ xᵢ` over a rank-1 tensor, producing a scalar. This is the
    /// weighted synthetic-batch loss of Algorithm 1 (lines 4 and 10).
    WeightedSum {
        xs: Var,
        weights: Vec<f64>,
    },
    /// Pick a single element of a rank-1 tensor as a scalar — used to
    /// extract one example's loss for per-example gradients.
    Gather {
        xs: Var,
        index: usize,
    },
    /// View with a different shape (same element count, same order).
    Reshape {
        x: Var,
    },
}

struct Node<'p> {
    value: Cow<'p, Tensor>,
    op: Op,
}

/// Gradients produced by [`Tape::backward`].
///
/// Indexable by the [`Var`]s of the tape that produced it. Vars that do
/// not influence the loss have `None` gradients.
pub struct Grads {
    grads: Vec<Option<Grad>>,
}

impl Grads {
    /// Gradient of the loss with respect to `v`, if `v` influences it.
    pub fn get(&self, v: Var) -> Option<&Grad> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Move the gradient with respect to `v` out, if `v` influences the
    /// loss (and it was not taken before).
    pub fn take(&mut self, v: Var) -> Option<Grad> {
        self.grads.get_mut(v.0).and_then(Option::take)
    }
}

/// An autodiff tape. See the module docs for the programming model.
///
/// # Examples
///
/// ```
/// use mb_tensor::{Tape, Tensor};
///
/// // d/dx sum((x + x)²) = 8x
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::vector(&[1.0, -2.0]));
/// let two_x = tape.add(x, x);
/// let sq = tape.mul_elem(two_x, two_x);
/// let loss = tape.sum_all(sq);
/// let grads = tape.backward(loss);
/// assert_eq!(grads.get(x).unwrap().to_dense().data(), &[8.0, -16.0]);
/// ```
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
}

impl<'p> Tape<'p> {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Record an input (parameter or constant) node: a `Tensor` the
    /// tape then owns, or a `&'p Tensor` it reads in place.
    pub fn leaf(&mut self, value: impl Into<Cow<'p, Tensor>>) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: impl Into<Cow<'p, Tensor>>, op: Op) -> Var {
        self.nodes.push(Node { value: value.into(), op });
        Var(self.nodes.len() - 1)
    }

    fn val(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    // ------------------------------------------------------------------
    // Forward ops
    // ------------------------------------------------------------------

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.val(a).add(self.val(b));
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.val(a).sub(self.val(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise `a * b`.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.val(a).mul(self.val(b));
        self.push(value, Op::MulElem(a, b))
    }

    /// `k * a` for a constant `k`.
    pub fn scale(&mut self, a: Var, k: f64) -> Var {
        let value = self.val(a).scale(k);
        self.push(value, Op::Scale(a, k))
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.val(a).matmul(self.val(b));
        self.push(value, Op::Matmul(a, b))
    }

    /// Matrix product `a @ bᵀ`.
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let value = self.val(a).matmul_t(self.val(b));
        self.push(value, Op::MatmulT(a, b))
    }

    /// Affine map `x @ w + b` (bias broadcast over rows).
    ///
    /// # Panics
    /// Panics unless `x: [n, f]`, `w: [f, o]`, `b: [o]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let value = frozen::linear(self.val(x), self.val(w), self.val(b));
        self.push(value, Op::Linear { x, w, b })
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = frozen::tanh(self.val(a));
        self.push(value, Op::Tanh(a))
    }

    /// Mean over all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.val(a).mean());
        self.push(value, Op::MeanAll(a))
    }

    /// Sum over all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.val(a).sum());
        self.push(value, Op::SumAll(a))
    }

    /// Row-wise L2 normalisation: each row is divided by
    /// `max(‖row‖₂, eps)`.
    pub fn row_l2_normalize(&mut self, x: Var, eps: f64) -> Var {
        let value = frozen::row_l2_normalize(self.val(x), eps);
        self.push(value, Op::RowL2Normalize { x, eps })
    }

    /// Mean-pooled embedding-bag lookup.
    ///
    /// `table` must be a `[vocab, dim]` leaf/param; `bags[i]` lists the
    /// token ids of example `i`. Output is `[bags.len(), dim]`; empty
    /// bags yield zero rows.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn bag_embed(&mut self, table: Var, mut bags: Vec<Vec<u32>>) -> Var {
        let value = frozen::bag_embed(self.val(table), &bags);
        let mut rows: Vec<u32> = bags.iter().flatten().copied().collect();
        rows.sort_unstable();
        rows.dedup();
        for token in bags.iter_mut().flatten() {
            *token = rows.binary_search(token).expect("every token was collected into rows") as u32;
        }
        self.push(value, Op::BagEmbed { table, rows, bags })
    }

    /// Row-wise dot product of two `[n, d]` tensors → `[n]`.
    pub fn rows_dot(&mut self, a: Var, b: Var) -> Var {
        let value = frozen::rows_dot(self.val(a), self.val(b));
        self.push(value, Op::RowsDot(a, b))
    }

    /// The paper's Eq. 6 per-example in-batch negative loss.
    ///
    /// `scores` is the `[n, n]` matrix with `S(mᵢ, eⱼ)` at `(i, j)` and
    /// gold pairs on the diagonal. Produces `[n]` losses
    /// `lᵢ = −Sᵢᵢ + log Σ_{j∈Dᵢ} exp(Sᵢⱼ)` where `Dᵢ` excludes the gold
    /// column when `exclude_gold` (the form printed in the paper) and
    /// includes it otherwise (the standard softmax-CE variant, kept for
    /// the loss ablation).
    ///
    /// # Panics
    /// Panics if `scores` is not square, or if `exclude_gold` with
    /// `n < 2` (the denominator would be empty).
    pub fn in_batch_neg_loss(&mut self, scores: Var, exclude_gold: bool) -> Var {
        let sv = self.val(scores);
        assert_eq!(sv.rank(), 2, "in_batch_neg_loss: rank-2 required");
        let n = sv.rows();
        assert_eq!(n, sv.cols(), "in_batch_neg_loss: square matrix required, got {:?}", sv.shape());
        if exclude_gold {
            assert!(n >= 2, "in_batch_neg_loss: exclude_gold requires batch size >= 2");
        }
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            let row = sv.row(i);
            let lse = if exclude_gold {
                let rest: Vec<f64> =
                    row.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, &s)| s).collect();
                log_sum_exp(&rest)
            } else {
                log_sum_exp(row)
            };
            *o = -row[i] + lse;
        }
        self.push(Tensor::from_vec(vec![n], out), Op::InBatchNegLoss { scores, exclude_gold })
    }

    /// Per-row softmax cross-entropy over `[n, k]` logits → `[n]` losses.
    ///
    /// # Panics
    /// Panics if `targets.len() != n` or any target is out of range.
    pub fn softmax_ce_rows(&mut self, logits: Var, targets: Vec<usize>) -> Var {
        let lv = self.val(logits);
        assert_eq!(lv.rank(), 2, "softmax_ce_rows: rank-2 required");
        let (n, k) = (lv.rows(), lv.cols());
        assert_eq!(targets.len(), n, "softmax_ce_rows: {} targets for {n} rows", targets.len());
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            let t = targets[i];
            assert!(t < k, "softmax_ce_rows: target {t} out of range {k}");
            let row = lv.row(i);
            *o = -row[t] + log_sum_exp(row);
        }
        self.push(Tensor::from_vec(vec![n], out), Op::SoftmaxCrossEntropyRows { logits, targets })
    }

    /// Elementwise binary cross-entropy with logits (stable form).
    ///
    /// `targets` are probabilities in `[0, 1]`, flat-aligned with the
    /// logits tensor. Produces a same-shaped tensor of losses.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Vec<f64>) -> Var {
        let lv = self.val(logits);
        assert_eq!(
            lv.numel(),
            targets.len(),
            "bce_with_logits: {} logits vs {} targets",
            lv.numel(),
            targets.len()
        );
        let data: Vec<f64> = lv
            .data()
            .iter()
            .zip(&targets)
            .map(|(&z, &y)| z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln())
            .collect();
        let value = Tensor::from_vec(lv.shape().to_vec(), data);
        self.push(value, Op::BceWithLogits { logits, targets })
    }

    /// Weighted sum `Σᵢ wᵢ xᵢ` of a rank-1 tensor → scalar.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn weighted_sum(&mut self, xs: Var, weights: Vec<f64>) -> Var {
        let xv = self.val(xs);
        assert_eq!(xv.rank(), 1, "weighted_sum: rank-1 required, got {:?}", xv.shape());
        assert_eq!(
            xv.numel(),
            weights.len(),
            "weighted_sum: {} elements vs {} weights",
            xv.numel(),
            weights.len()
        );
        let total: f64 = xv.data().iter().zip(&weights).map(|(x, w)| x * w).sum();
        self.push(Tensor::scalar(total), Op::WeightedSum { xs, weights })
    }

    /// Extract element `index` of a rank-1 tensor as a scalar.
    pub fn gather(&mut self, xs: Var, index: usize) -> Var {
        let xv = self.val(xs);
        assert_eq!(xv.rank(), 1, "gather: rank-1 required");
        assert!(index < xv.numel(), "gather: index {index} out of {}", xv.numel());
        let value = Tensor::scalar(xv.data()[index]);
        self.push(value, Op::Gather { xs, index })
    }

    /// Reshape a node to a new shape with identical element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: Var, shape: impl Into<Vec<usize>>) -> Var {
        let value = self.val(x).clone().reshape(shape);
        self.push(value, Op::Reshape { x })
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse sweep from `loss`, which must be a scalar node.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar (one element).
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(
            self.val(loss).numel(),
            1,
            "backward: loss must be scalar, got shape {:?}",
            self.val(loss).shape()
        );
        let mut grads: Vec<Option<Grad>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::from_vec(self.val(loss).shape().to_vec(), vec![1.0]).into());

        for idx in (0..=loss.0).rev() {
            if matches!(self.nodes[idx].op, Op::Leaf) {
                continue;
            }
            let g = match grads[idx].take() {
                Some(g) => g.into_dense(),
                None => continue,
            };
            self.accumulate_parents(idx, &g, &mut grads);
            grads[idx] = Some(g.into());
        }
        Grads { grads }
    }

    /// Add `delta` into the gradient slot of `v`.
    fn accum(&self, grads: &mut [Option<Grad>], v: Var, delta: impl Into<Grad>) {
        let delta = delta.into();
        match &mut grads[v.0] {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn accumulate_parents(&self, idx: usize, g: &Tensor, grads: &mut [Option<Grad>]) {
        // Clone the op descriptor cheaply (only BagEmbed/targets carry
        // data; those are moderate-sized and only cloned on the backward
        // path of their own node).
        match &self.nodes[idx].op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accum(grads, *a, g.clone());
                self.accum(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                self.accum(grads, *a, g.clone());
                self.accum(grads, *b, g.scale(-1.0));
            }
            Op::MulElem(a, b) => {
                let ga = g.mul(self.val(*b));
                let gb = g.mul(self.val(*a));
                self.accum(grads, *a, ga);
                self.accum(grads, *b, gb);
            }
            Op::Scale(a, k) => {
                self.accum(grads, *a, g.scale(*k));
            }
            Op::Matmul(a, b) => {
                // y = a @ b  =>  ga = g @ bᵀ, gb = aᵀ @ g
                let ga = g.matmul_t(self.val(*b));
                let gb = self.val(*a).transpose().matmul(g);
                self.accum(grads, *a, ga);
                self.accum(grads, *b, gb);
            }
            Op::MatmulT(a, b) => {
                // y = a @ bᵀ  =>  ga = g @ b, gb = gᵀ @ a
                let ga = g.matmul(self.val(*b));
                let gb = g.transpose().matmul(self.val(*a));
                self.accum(grads, *a, ga);
                self.accum(grads, *b, gb);
            }
            Op::Linear { x, w, b } => {
                let gx = g.matmul_t(self.val(*w));
                let gw = self.val(*x).transpose().matmul(g);
                // gb = column sums of g.
                let o = self.val(*b).numel();
                let mut gb = vec![0.0; o];
                for i in 0..g.rows() {
                    for (s, v) in gb.iter_mut().zip(g.row(i)) {
                        *s += v;
                    }
                }
                self.accum(grads, *x, gx);
                self.accum(grads, *w, gw);
                self.accum(grads, *b, Tensor::from_vec(vec![o], gb));
            }
            Op::Tanh(a) => {
                // dy/dx = 1 - tanh(x)^2 = 1 - y^2
                let y = &self.nodes[idx].value;
                let ga = g.zip(y, |gi, yi| gi * (1.0 - yi * yi));
                self.accum(grads, *a, ga);
            }
            Op::MeanAll(a) => {
                let n = self.val(*a).numel() as f64;
                let ga = Tensor::full(self.val(*a).shape().to_vec(), g.item() / n);
                self.accum(grads, *a, ga);
            }
            Op::SumAll(a) => {
                let ga = Tensor::full(self.val(*a).shape().to_vec(), g.item());
                self.accum(grads, *a, ga);
            }
            Op::RowL2Normalize { x, eps } => {
                let xv = self.val(*x);
                let yv = &self.nodes[idx].value;
                let mut gx = Tensor::zeros(xv.shape().to_vec());
                for i in 0..xv.rows() {
                    let xr = xv.row(i);
                    let yr = yv.row(i);
                    let gr = g.row(i);
                    let norm = xr.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let out = gx.row_mut(i);
                    if norm > *eps {
                        let gy: f64 = gr.iter().zip(yr).map(|(a, b)| a * b).sum();
                        for ((o, &gi), &yi) in out.iter_mut().zip(gr).zip(yr) {
                            *o = (gi - gy * yi) / norm;
                        }
                    } else {
                        for (o, &gi) in out.iter_mut().zip(gr) {
                            *o = gi / eps;
                        }
                    }
                }
                self.accum(grads, *x, gx);
            }
            Op::BagEmbed { table, rows, bags } => {
                let tv = self.val(*table);
                let dim = tv.cols();
                let mut values = vec![0.0; rows.len() * dim];
                for (i, bag) in bags.iter().enumerate() {
                    if bag.is_empty() {
                        continue;
                    }
                    let inv = 1.0 / bag.len() as f64;
                    let grow = g.row(i);
                    for &at in bag {
                        let dst = &mut values[at as usize * dim..(at as usize + 1) * dim];
                        for (d, &gv) in dst.iter_mut().zip(grow) {
                            *d += inv * gv;
                        }
                    }
                }
                self.accum(grads, *table, RowGrad::new(tv.rows(), dim, rows.clone(), values));
            }
            Op::RowsDot(a, b) => {
                let av = self.val(*a);
                let bv = self.val(*b);
                let mut ga = Tensor::zeros(av.shape().to_vec());
                let mut gb = Tensor::zeros(bv.shape().to_vec());
                for i in 0..av.rows() {
                    let gi = g.data()[i];
                    for (o, &bvv) in ga.row_mut(i).iter_mut().zip(bv.row(i)) {
                        *o = gi * bvv;
                    }
                    for (o, &avv) in gb.row_mut(i).iter_mut().zip(av.row(i)) {
                        *o = gi * avv;
                    }
                }
                self.accum(grads, *a, ga);
                self.accum(grads, *b, gb);
            }
            Op::InBatchNegLoss { scores, exclude_gold } => {
                let sv = self.val(*scores);
                let n = sv.rows();
                let mut gs = Tensor::zeros(vec![n, n]);
                for i in 0..n {
                    let gi = g.data()[i];
                    if gi == 0.0 {
                        continue;
                    }
                    let row = sv.row(i);
                    // Softmax over the denominator's support.
                    let lse = if *exclude_gold {
                        let rest: Vec<f64> = row
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, &s)| s)
                            .collect();
                        log_sum_exp(&rest)
                    } else {
                        log_sum_exp(row)
                    };
                    for j in 0..n {
                        let in_denom = !*exclude_gold || j != i;
                        let p = if in_denom { (row[j] - lse).exp() } else { 0.0 };
                        let mut d = p;
                        if j == i {
                            d -= 1.0;
                        }
                        *gs.at_mut(i, j) += gi * d;
                    }
                }
                self.accum(grads, *scores, gs);
            }
            Op::SoftmaxCrossEntropyRows { logits, targets } => {
                let lv = self.val(*logits);
                let (n, k) = (lv.rows(), lv.cols());
                let mut gl = Tensor::zeros(vec![n, k]);
                for i in 0..n {
                    let gi = g.data()[i];
                    if gi == 0.0 {
                        continue;
                    }
                    let row = lv.row(i);
                    let lse = log_sum_exp(row);
                    for j in 0..k {
                        let mut d = (row[j] - lse).exp();
                        if j == targets[i] {
                            d -= 1.0;
                        }
                        *gl.at_mut(i, j) += gi * d;
                    }
                }
                self.accum(grads, *logits, gl);
            }
            Op::BceWithLogits { logits, targets } => {
                let lv = self.val(*logits);
                let data: Vec<f64> = lv
                    .data()
                    .iter()
                    .zip(targets)
                    .zip(g.data())
                    .map(|((&z, &y), &gi)| gi * (1.0 / (1.0 + (-z).exp()) - y))
                    .collect();
                self.accum(grads, *logits, Tensor::from_vec(lv.shape().to_vec(), data));
            }
            Op::WeightedSum { xs, weights } => {
                let gi = g.item();
                let gx: Vec<f64> = weights.iter().map(|&w| gi * w).collect();
                let n = gx.len();
                self.accum(grads, *xs, Tensor::from_vec(vec![n], gx));
            }
            Op::Gather { xs, index } => {
                let n = self.val(*xs).numel();
                let mut gx = vec![0.0; n];
                gx[*index] = g.item();
                self.accum(grads, *xs, Tensor::from_vec(vec![n], gx));
            }
            Op::Reshape { x } => {
                let shape = self.val(*x).shape().to_vec();
                self.accum(grads, *x, g.clone().reshape(shape));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::util::approx_eq;
    use mb_common::Rng;

    /// Numerically differentiate `f` at `x` with central differences.
    fn numeric_grad(f: &dyn Fn(&Tensor) -> f64, x: &Tensor) -> Tensor {
        let eps = 1e-5;
        let mut g = Tensor::zeros(x.shape().to_vec());
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Grad, b: &Tensor, tol: f64) {
        let a = a.to_dense();
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(approx_eq(*x, *y, tol), "grad mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn add_sub_mul_grads() {
        let mut rng = Rng::seed_from_u64(1);
        let a0 = Tensor::randn(vec![3], 0.0, 1.0, &mut rng);
        let b0 = Tensor::randn(vec![3], 0.0, 1.0, &mut rng);

        let f = |a: &Tensor| {
            let mut t = Tape::new();
            let a = t.leaf(a.clone());
            let b = t.leaf(b0.clone());
            let s = t.add(a, b);
            let d = t.sub(s, b);
            let m = t.mul_elem(d, s);
            let l = t.sum_all(m);
            t.value(l).item()
        };

        let mut t = Tape::new();
        let a = t.leaf(a0.clone());
        let b = t.leaf(b0.clone());
        let s = t.add(a, b);
        let d = t.sub(s, b);
        let m = t.mul_elem(d, s);
        let l = t.sum_all(m);
        let g = t.backward(l);
        assert_close(g.get(a).unwrap(), &numeric_grad(&f, &a0), 1e-6);
    }

    #[test]
    fn matmul_grads_both_sides() {
        let mut rng = Rng::seed_from_u64(2);
        let a0 = Tensor::randn(vec![2, 3], 0.0, 1.0, &mut rng);
        let b0 = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);

        let run = |a: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let av = t.leaf(a.clone());
            let bv = t.leaf(b.clone());
            let y = t.matmul(av, bv);
            let l = t.sum_all(y);
            (t.value(l).item(), t.backward(l), av, bv)
        };
        let (_, g, av, bv) = run(&a0, &b0);
        let fa = |a: &Tensor| run(a, &b0).0;
        let fb = |b: &Tensor| run(&a0, b).0;
        assert_close(g.get(av).unwrap(), &numeric_grad(&fa, &a0), 1e-6);
        assert_close(g.get(bv).unwrap(), &numeric_grad(&fb, &b0), 1e-6);
    }

    #[test]
    fn matmul_t_grads() {
        let mut rng = Rng::seed_from_u64(3);
        let a0 = Tensor::randn(vec![3, 2], 0.0, 1.0, &mut rng);
        let b0 = Tensor::randn(vec![4, 2], 0.0, 1.0, &mut rng);
        let run = |a: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let av = t.leaf(a.clone());
            let bv = t.leaf(b.clone());
            let y = t.matmul_t(av, bv);
            // Sum of squares gives asymmetric upstream grads.
            let sq = t.mul_elem(y, y);
            let l = t.sum_all(sq);
            (t.value(l).item(), t.backward(l), av, bv)
        };
        let (_, g, av, bv) = run(&a0, &b0);
        let fa = |a: &Tensor| run(a, &b0).0;
        let fb = |b: &Tensor| run(&a0, b).0;
        assert_close(g.get(av).unwrap(), &numeric_grad(&fa, &a0), 1e-5);
        assert_close(g.get(bv).unwrap(), &numeric_grad(&fb, &b0), 1e-5);
    }

    #[test]
    fn linear_grads() {
        let mut rng = Rng::seed_from_u64(4);
        let x0 = Tensor::randn(vec![3, 2], 0.0, 1.0, &mut rng);
        let w0 = Tensor::randn(vec![2, 4], 0.0, 1.0, &mut rng);
        let b0 = Tensor::randn(vec![4], 0.0, 1.0, &mut rng);
        let run = |x: &Tensor, w: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let wv = t.leaf(w.clone());
            let bv = t.leaf(b.clone());
            let y = t.linear(xv, wv, bv);
            let h = t.tanh(y);
            let l = t.mean_all(h);
            (t.value(l).item(), t.backward(l), xv, wv, bv)
        };
        let (_, g, xv, wv, bv) = run(&x0, &w0, &b0);
        assert_close(g.get(xv).unwrap(), &numeric_grad(&|x| run(x, &w0, &b0).0, &x0), 1e-6);
        assert_close(g.get(wv).unwrap(), &numeric_grad(&|w| run(&x0, w, &b0).0, &w0), 1e-6);
        assert_close(g.get(bv).unwrap(), &numeric_grad(&|b| run(&x0, &w0, b).0, &b0), 1e-6);
    }

    #[test]
    fn tanh_grads() {
        let mut rng = Rng::seed_from_u64(5);
        let x0 = Tensor::randn(vec![6], 0.0, 1.5, &mut rng);
        let run = |x: &Tensor| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let y = t.tanh(xv);
            let l = t.sum_all(y);
            (t.value(l).item(), t.backward(l), xv)
        };
        let (_, g, xv) = run(&x0);
        assert_close(g.get(xv).unwrap(), &numeric_grad(&|x| run(x).0, &x0), 1e-5);
    }

    #[test]
    fn row_l2_normalize_grads() {
        let mut rng = Rng::seed_from_u64(6);
        let x0 = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);
        let run = |x: &Tensor| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let y = t.row_l2_normalize(xv, 1e-8);
            let sq = t.mul_elem(y, y);
            // Asymmetric upstream grads via a constant-weight leaf.
            let weights: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0) * 0.1).collect();
            let c = t.leaf(Tensor::from_vec(vec![3, 4], weights));
            let m = t.mul_elem(sq, c);
            let l = t.sum_all(m);
            (t.value(l).item(), t.backward(l), xv)
        };
        let (_, g, xv) = run(&x0);
        assert_close(g.get(xv).unwrap(), &numeric_grad(&|x| run(x).0, &x0), 1e-5);
    }

    #[test]
    fn row_l2_normalize_output_is_unit() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec([2, 2], vec![3.0, 4.0, 0.0, 0.0]));
        let y = t.row_l2_normalize(x, 1e-8);
        assert!(approx_eq(t.value(y).row(0).iter().map(|v| v * v).sum::<f64>(), 1.0, 1e-12));
        // Zero rows stay (near) zero rather than NaN.
        assert!(t.value(y).row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bag_embed_forward_and_grads() {
        let table0 = Tensor::from_vec([3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bags = vec![vec![0u32, 2], vec![1], vec![]];
        let run = |tab: &Tensor| {
            let mut t = Tape::new();
            let tv = t.leaf(tab.clone());
            let y = t.bag_embed(tv, bags.clone());
            let sq = t.mul_elem(y, y);
            let l = t.sum_all(sq);
            (t.value(l).item(), t.backward(l), tv, t.value(y).clone())
        };
        let (_, g, tv, y) = run(&table0);
        assert_eq!(y.row(0), &[3.0, 4.0]); // mean of rows 0 and 2
        assert_eq!(y.row(1), &[3.0, 4.0]); // row 1
        assert_eq!(y.row(2), &[0.0, 0.0]); // empty bag
        assert_close(g.get(tv).unwrap(), &numeric_grad(&|x| run(x).0, &table0), 1e-5);
    }

    #[test]
    fn rows_dot_grads() {
        let mut rng = Rng::seed_from_u64(7);
        let a0 = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);
        let b0 = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);
        let run = |a: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let av = t.leaf(a.clone());
            let bv = t.leaf(b.clone());
            let d = t.rows_dot(av, bv);
            let l = t.weighted_sum(d, vec![1.0, -2.0, 0.5]);
            (t.value(l).item(), t.backward(l), av, bv)
        };
        let (_, g, av, bv) = run(&a0, &b0);
        assert_close(g.get(av).unwrap(), &numeric_grad(&|a| run(a, &b0).0, &a0), 1e-6);
        assert_close(g.get(bv).unwrap(), &numeric_grad(&|b| run(&a0, b).0, &b0), 1e-6);
    }

    #[test]
    fn in_batch_neg_loss_values_and_grads() {
        let mut rng = Rng::seed_from_u64(8);
        let s0 = Tensor::randn(vec![4, 4], 0.0, 1.0, &mut rng);
        for exclude in [true, false] {
            let run = |s: &Tensor| {
                let mut t = Tape::new();
                let sv = t.leaf(s.clone());
                let l = t.in_batch_neg_loss(sv, exclude);
                let tot = t.weighted_sum(l, vec![0.4, 0.3, 0.2, 0.1]);
                (t.value(tot).item(), t.backward(tot), sv, t.value(l).clone())
            };
            let (_, g, sv, losses) = run(&s0);
            // Hand-check loss of row 0.
            let row = s0.row(0);
            let denom: Vec<f64> = if exclude { row[1..].to_vec() } else { row.to_vec() };
            let expect = -row[0] + log_sum_exp(&denom);
            assert!(approx_eq(losses.data()[0], expect, 1e-12));
            assert_close(g.get(sv).unwrap(), &numeric_grad(&|s| run(s).0, &s0), 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "batch size >= 2")]
    fn in_batch_neg_loss_rejects_singleton_excluding_gold() {
        let mut t = Tape::new();
        let s = t.leaf(Tensor::from_vec([1, 1], vec![1.0]));
        t.in_batch_neg_loss(s, true);
    }

    #[test]
    fn softmax_ce_rows_grads() {
        let mut rng = Rng::seed_from_u64(9);
        let l0 = Tensor::randn(vec![3, 5], 0.0, 1.0, &mut rng);
        let targets = vec![2usize, 0, 4];
        let run = |x: &Tensor| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let l = t.softmax_ce_rows(xv, targets.clone());
            let tot = t.mean_all(l);
            (t.value(tot).item(), t.backward(tot), xv)
        };
        let (val, g, xv) = run(&l0);
        assert!(val > 0.0);
        assert_close(g.get(xv).unwrap(), &numeric_grad(&|x| run(x).0, &l0), 1e-6);
    }

    #[test]
    fn bce_with_logits_grads_and_stability() {
        let l0 = Tensor::vector(&[-50.0, -1.0, 0.0, 1.0, 50.0]);
        let targets = vec![0.0, 1.0, 0.5, 0.0, 1.0];
        let run = |x: &Tensor| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let l = t.bce_with_logits(xv, targets.clone());
            let tot = t.mean_all(l);
            (t.value(tot).item(), t.backward(tot), xv, t.value(l).clone())
        };
        let (val, g, xv, per) = run(&l0);
        assert!(val.is_finite());
        assert!(per.data().iter().all(|x| x.is_finite() && *x >= 0.0));
        assert_close(g.get(xv).unwrap(), &numeric_grad(&|x| run(x).0, &l0), 1e-5);
    }

    #[test]
    fn weighted_sum_and_gather_grads() {
        let x0 = Tensor::vector(&[1.0, 2.0, 3.0]);
        let mut t = Tape::new();
        let x = t.leaf(x0.clone());
        let ws = t.weighted_sum(x, vec![0.5, 0.0, 2.0]);
        assert_eq!(t.value(ws).item(), 0.5 + 6.0);
        let g = t.backward(ws);
        assert_eq!(g.get(x).unwrap().to_dense().data(), &[0.5, 0.0, 2.0]);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(x0);
        let picked = t2.gather(x2, 1);
        assert_eq!(t2.value(picked).item(), 2.0);
        let g2 = t2.backward(picked);
        assert_eq!(g2.get(x2).unwrap().to_dense().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn unconnected_leaf_has_no_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[1.0]));
        let b = t.leaf(Tensor::vector(&[2.0]));
        let l = t.sum_all(a);
        let g = t.backward(l);
        assert!(g.get(b).is_none());
    }

    #[test]
    fn grad_accumulates_over_shared_subexpressions() {
        // l = sum(x * x) => dl/dx = 2x via two paths through MulElem.
        let x0 = Tensor::vector(&[1.5, -2.0]);
        let mut t = Tape::new();
        let x = t.leaf(x0.clone());
        let m = t.mul_elem(x, x);
        let l = t.sum_all(m);
        let g = t.backward(l);
        assert_eq!(g.get(x).unwrap().to_dense().data(), &[3.0, -4.0]);
    }

    #[test]
    fn reshape_grads_flow_through() {
        let x0 = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut t = Tape::new();
        let x = t.leaf(x0);
        let flat = t.reshape(x, vec![4]);
        let l = t.weighted_sum(flat, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.value(l).item(), 30.0);
        let g = t.backward(l);
        let gx = g.get(x).unwrap().to_dense();
        assert_eq!(gx.shape(), &[2, 2]);
        assert_eq!(gx.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::vector(&[1.0, 2.0]));
        t.backward(x);
    }
}
