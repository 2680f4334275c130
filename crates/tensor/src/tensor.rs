//! Dense row-major `f64` tensors.
//!
//! [`Tensor`] is deliberately simple: a shape vector plus a flat data
//! buffer. Rank-1 and rank-2 tensors cover everything the linker needs;
//! higher ranks are representable but only the generic elementwise ops
//! accept them. All shape violations panic — they are programming errors
//! in this workspace, not recoverable conditions.

use mb_common::Rng;
use std::borrow::Cow;
use std::fmt;

/// A dense, row-major tensor of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

/// An owned tensor as a [`crate::Tape`] leaf value.
impl From<Tensor> for Cow<'_, Tensor> {
    fn from(t: Tensor) -> Self {
        Cow::Owned(t)
    }
}

/// A borrowed tensor as a [`crate::Tape`] leaf value: the tape reads
/// it in place for as long as it lives.
impl<'a> From<&'a Tensor> for Cow<'a, Tensor> {
    fn from(t: &'a Tensor) -> Self {
        Cow::Borrowed(t)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …; n={}]", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Tensor {
    /// Build a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not equal the shape product.
    pub fn from_vec(shape: impl Into<Vec<usize>>, data: Vec<f64>) -> Self {
        let shape = shape.into();
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "Tensor::from_vec: shape {:?} implies {} elements, got {}",
            shape,
            numel,
            data.len()
        );
        Tensor { shape, data }
    }

    /// A rank-1 tensor from a slice.
    pub fn vector(data: &[f64]) -> Self {
        Tensor::from_vec(vec![data.len()], data.to_vec())
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        let numel = shape.iter().product();
        Tensor { shape, data: vec![0.0; numel] }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: impl Into<Vec<usize>>, value: f64) -> Self {
        let shape = shape.into();
        let numel = shape.iter().product();
        Tensor { shape, data: vec![value; numel] }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f64) -> Self {
        Tensor { shape: vec![], data: vec![value] }
    }

    /// I.i.d. normal entries with the given mean and std.
    pub fn randn(shape: impl Into<Vec<usize>>, mean: f64, std: f64, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.normal(mean, std)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions). Scalars have rank 0.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Rows of a rank-2 tensor (or length of rank-1, or 1 for scalar).
    #[inline]
    pub fn rows(&self) -> usize {
        match self.rank() {
            0 => 1,
            _ => self.shape[0],
        }
    }

    /// Columns of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless rank is exactly 2.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a rank-2 tensor, shape {:?}", self.shape);
        self.shape[1]
    }

    /// Flat read-only view of the data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of the data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(self.numel(), 1, "item() on tensor with shape {:?}", self.shape);
        self.data[0]
    }

    /// Element access for rank-2 tensors.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert_eq!(self.rank(), 2);
        debug_assert!(i < self.shape[0] && j < self.shape[1]);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element access for rank-2 tensors.
    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        &mut self.data[i * c + j]
    }

    /// Row `i` of a rank-2 tensor as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert_eq!(self.rank(), 2, "row() requires rank-2, shape {:?}", self.shape);
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert_eq!(self.rank(), 2, "row_mut() requires rank-2, shape {:?}", self.shape);
        let c = self.shape[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Reinterpret with a new shape of identical element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(mut self, shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        self.shape = shape;
        self
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise binary zip into a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip: shape {:?} vs {:?}", self.shape, other.shape);
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub(crate) fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scale by a constant.
    pub fn scale(&self, k: f64) -> Tensor {
        self.map(|x| k * x)
    }

    /// In-place `self += k * other` (axpy). The hot path of every optimizer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, k: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy: shape {:?} vs {:?}", self.shape, other.shape);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Flat dot product of two same-shaped tensors.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "dot: shape {:?} vs {:?}", self.shape, other.shape);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Matrix product `self @ other` for rank-2 tensors.
    ///
    /// Runs the cache-blocked register-tiled kernel
    /// ([`crate::kernels`]) on one thread. Each output element is a
    /// single ascending-k fold with separate multiply and add, so the
    /// result is bit-identical to the textbook triple loop.
    ///
    /// # Panics
    /// Panics unless shapes are `[m, k] @ [k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::kernels::matmul_impl(self, other, false)
    }

    /// Matrix product `self @ other.T` for rank-2 tensors — the score
    /// matrix `M · Eᵀ` of the bi-encoder. Rides the same blocked kernel
    /// as [`Tensor::matmul`]; the transposed layout is absorbed during
    /// panel packing.
    ///
    /// # Panics
    /// Panics unless shapes are `[m, k] @ [n, k]ᵀ`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        crate::kernels::matmul_impl(self, other, true)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose rank {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::util::approx_eq;

    #[test]
    fn construct_and_query() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
        assert_eq!(Tensor::scalar(1.0).rank(), 0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[3.0, 4.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::vector(&[1.0, 1.0]);
        a.axpy(0.5, &Tensor::vector(&[2.0, 4.0]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!(approx_eq(t.norm(), 30.0_f64.sqrt(), 1e-12));
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(vec![5, 4], 0.0, 1.0, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!(approx_eq(*x, *y, 1e-12));
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Tensor::randn(vec![4, 4], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros(vec![4, 4]);
        for i in 0..4 {
            *eye.at_mut(i, i) = 1.0;
        }
        let out = a.matmul(&eye);
        for (x, y) in out.data().iter().zip(a.data()) {
            assert!(approx_eq(*x, *y, 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn(vec![3, 5], 0.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::vector(&[1.0, 2.0, 3.0, 4.0]).reshape(vec![2, 2]);
        assert_eq!(t.at(1, 0), 3.0);
    }

    #[test]
    fn dot_and_non_finite() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let b = Tensor::vector(&[3.0, -1.0]);
        assert_eq!(a.dot(&b), 1.0);
        assert!(!a.has_non_finite());
        assert!(Tensor::vector(&[f64::NAN]).has_non_finite());
        assert!(Tensor::vector(&[f64::INFINITY]).has_non_finite());
    }

    #[test]
    fn randn_is_seed_deterministic() {
        let mut r1 = Rng::seed_from_u64(9);
        let mut r2 = Rng::seed_from_u64(9);
        let a = Tensor::randn(vec![10], 0.0, 1.0, &mut r1);
        let b = Tensor::randn(vec![10], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
