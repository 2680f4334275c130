//! The gradient of one tensor: dense, or row-sparse for an embedding
//! table.
//!
//! A bag-of-tokens loss leaves every table row it does not mention at
//! exactly zero, so [`crate::Tape`]'s `bag_embed` backward emits a
//! [`RowGrad`] — the touched rows only — and that form is what a
//! [`crate::params::GradVec`] carries for the table from the tape to
//! the optimizer. Every other gradient stays a dense [`Tensor`].
//!
//! **Same bits as the dense form.** An absent row stands for the row of
//! `+0.0` the dense gradient held there, and each kept element is the
//! same ascending fold of the same terms: a merge evaluates the dense
//! `a + k·b` with `+0.0` for the missing side, a dot or norm adds the
//! kept terms in ascending element order, and `Grad::for_each_span`
//! hands an optimizer real zeros so its per-element expression is
//! evaluated unchanged. Densifying any result therefore reproduces the
//! all-dense computation by `to_bits` for finite values, with one
//! exception: a dot or squared norm skips the `±0.0` terms of absent
//! rows, so a result that is *exactly zero* may carry the other sign
//! (it still compares `== 0.0`), and likewise a dense `−0.0` element in
//! a row the other side lacks is left as it is by `Grad::axpy`. No
//! pinned path produces either.

use crate::tensor::Tensor;

/// Row-sparse gradient of a `[rows, dim]` table: the rows in `ids`
/// (strictly ascending) hold `values` (`[ids.len(), dim]`, row-major);
/// every other row is `+0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGrad {
    rows: usize,
    dim: usize,
    ids: Vec<u32>,
    values: Vec<f64>,
}

impl RowGrad {
    /// Build from sorted unique row ids and their values.
    ///
    /// # Panics
    /// Panics if `dim` is zero, `ids` is not strictly ascending or
    /// reaches `rows`, or `values` is not `ids.len() * dim` long.
    pub fn new(rows: usize, dim: usize, ids: Vec<u32>, values: Vec<f64>) -> Self {
        assert!(dim > 0, "RowGrad: zero-width table");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "RowGrad: row ids must be strictly ascending");
        assert!(ids.last().is_none_or(|&id| (id as usize) < rows), "RowGrad: row id out of range");
        assert_eq!(values.len(), ids.len() * dim, "RowGrad: {} ids of width {dim}", ids.len());
        RowGrad { rows, dim, ids, values }
    }

    /// The kept rows, ascending: `(row id, row values)`.
    fn iter(&self) -> impl Iterator<Item = (u32, &[f64])> {
        self.ids.iter().copied().zip(self.values.chunks_exact(self.dim))
    }

    fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(vec![self.rows, self.dim]);
        for (id, row) in self.iter() {
            out.row_mut(id as usize).copy_from_slice(row);
        }
        out
    }

    /// `self += k · other` over the union of both row sets; a row only
    /// one side holds meets `+0.0` from the other.
    fn merge(&mut self, k: f64, other: &RowGrad) {
        assert_eq!((self.rows, self.dim), (other.rows, other.dim), "RowGrad: table shape mismatch");
        let dim = self.dim;
        let zero = vec![0.0; dim];
        let mut ids = Vec::with_capacity(self.ids.len() + other.ids.len());
        let mut values = Vec::with_capacity(ids.capacity() * dim);
        {
            let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
            loop {
                let id = match (a.peek(), b.peek()) {
                    (Some(&(x, _)), Some(&(y, _))) => x.min(y),
                    (Some(&(x, _)), None) | (None, Some(&(x, _))) => x,
                    (None, None) => break,
                };
                let ours = a.next_if(|&(x, _)| x == id).map_or(&zero[..], |(_, row)| row);
                let theirs = b.next_if(|&(y, _)| y == id).map_or(&zero[..], |(_, row)| row);
                ids.push(id);
                values.extend(ours.iter().zip(theirs).map(|(&x, &y)| x + k * y));
            }
        }
        self.ids = ids;
        self.values = values;
    }

    /// The rows both sides keep, ascending.
    fn common<'a>(&'a self, other: &'a RowGrad) -> impl Iterator<Item = (&'a [f64], &'a [f64])> {
        assert_eq!((self.rows, self.dim), (other.rows, other.dim), "RowGrad: table shape mismatch");
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        std::iter::from_fn(move || loop {
            let (&(x, ours), &(y, theirs)) = (a.peek()?, b.peek()?);
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
            if x == y {
                return Some((ours, theirs));
            }
        })
    }
}

/// Gradient of a loss with respect to one tensor. See the module docs
/// for the equivalence of the two forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Grad {
    /// Every element stored.
    Dense(Tensor),
    /// Only the touched rows of a `[rows, dim]` table stored.
    Rows(RowGrad),
}

impl From<Tensor> for Grad {
    fn from(t: Tensor) -> Self {
        Grad::Dense(t)
    }
}

impl From<RowGrad> for Grad {
    fn from(r: RowGrad) -> Self {
        Grad::Rows(r)
    }
}

fn dot_rows<'a>(pairs: impl Iterator<Item = (&'a [f64], &'a [f64])>) -> f64 {
    pairs.flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| x * y)).sum()
}

fn assert_table(dense: &Tensor, r: &RowGrad) {
    assert_eq!(dense.shape(), [r.rows, r.dim], "Grad: dense tensor vs row-sparse table shape");
}

impl Grad {
    /// The cheapest zero gradient of a tensor of `shape`: no rows for a
    /// matrix, a zero tensor otherwise.
    pub(crate) fn zero(shape: &[usize]) -> Grad {
        match *shape {
            [rows, dim] if dim > 0 => Grad::Rows(RowGrad::new(rows, dim, Vec::new(), Vec::new())),
            _ => Grad::Dense(Tensor::zeros(shape.to_vec())),
        }
    }

    /// The elements held: all of a dense tensor, the kept rows of the
    /// row form.
    fn stored(&self) -> &[f64] {
        match self {
            Grad::Dense(t) => t.data(),
            Grad::Rows(r) => &r.values,
        }
    }

    /// Number of `f64` elements held (a dense tensor's `numel`; kept
    /// rows × width for the row form).
    pub fn stored_len(&self) -> usize {
        self.stored().len()
    }

    /// The dense tensor this gradient stands for.
    pub fn to_dense(&self) -> Tensor {
        match self {
            Grad::Dense(t) => t.clone(),
            Grad::Rows(r) => r.to_dense(),
        }
    }

    /// [`Grad::to_dense`] by value: free for the dense form.
    pub(crate) fn into_dense(self) -> Tensor {
        match self {
            Grad::Dense(t) => t,
            Grad::Rows(r) => r.to_dense(),
        }
    }

    /// Flat dot product `Σ selfᵢ · otherᵢ` in ascending element order,
    /// over the rows both sides keep.
    ///
    /// # Panics
    /// Panics on mismatched shapes.
    pub fn dot(&self, other: &Grad) -> f64 {
        match (self, other) {
            (Grad::Dense(a), Grad::Dense(b)) => a.dot(b),
            (Grad::Dense(d), Grad::Rows(r)) | (Grad::Rows(r), Grad::Dense(d)) => {
                assert_table(d, r);
                dot_rows(r.iter().map(|(id, row)| (d.row(id as usize), row)))
            }
            (Grad::Rows(a), Grad::Rows(b)) => dot_rows(a.common(b)),
        }
    }

    /// Sum of squares of every element, in ascending element order.
    pub(crate) fn sq_sum(&self) -> f64 {
        self.stored().iter().map(|x| x * x).sum()
    }

    /// `dst += k · self`, touching only the rows `self` keeps.
    ///
    /// # Panics
    /// Panics on mismatched shapes.
    pub(crate) fn add_to(&self, k: f64, dst: &mut Tensor) {
        match self {
            Grad::Dense(t) => dst.axpy(k, t),
            Grad::Rows(r) => {
                assert_table(dst, r);
                for (id, row) in r.iter() {
                    for (a, &b) in dst.row_mut(id as usize).iter_mut().zip(row) {
                        *a += k * b;
                    }
                }
            }
        }
    }

    /// In-place `self += k · other`. A row-sparse `self` stays
    /// row-sparse (the union of both row sets) unless `other` is dense.
    ///
    /// # Panics
    /// Panics on mismatched shapes.
    pub(crate) fn axpy(&mut self, k: f64, other: &Grad) {
        match (&mut *self, other) {
            (Grad::Dense(a), _) => other.add_to(k, a),
            (Grad::Rows(a), Grad::Rows(b)) => a.merge(k, b),
            (Grad::Rows(a), Grad::Dense(_)) => {
                let mut dense = a.to_dense();
                other.add_to(k, &mut dense);
                *self = Grad::Dense(dense);
            }
        }
    }

    /// True if any stored element is NaN or infinite.
    pub(crate) fn has_non_finite(&self) -> bool {
        self.stored().iter().any(|x| !x.is_finite())
    }

    /// Walk the whole tensor in element order as consecutive spans:
    /// `f(offset, g)` receives the gradient of elements
    /// `offset..offset + g.len()`, real zeros for an absent row. This is
    /// how an optimizer makes its one dense pass (Adam decays every
    /// moment, touched or not) without the gradient being densified.
    pub(crate) fn for_each_span(&self, mut f: impl FnMut(usize, &[f64])) {
        match self {
            Grad::Dense(t) => f(0, t.data()),
            Grad::Rows(r) => {
                let zero = vec![0.0; r.dim];
                let mut kept = r.iter().peekable();
                for row in 0..r.rows {
                    let g =
                        kept.next_if(|&(id, _)| id as usize == row).map_or(&zero[..], |(_, g)| g);
                    f(row * r.dim, g);
                }
            }
        }
    }
}
