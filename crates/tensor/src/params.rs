//! Named parameter collections.
//!
//! A [`Params`] owns a model's trainable tensors in a stable order, so
//! that the optimizer, gradient vectors, checkpoints, and the
//! meta-learning machinery can all address parameters positionally
//! while humans address them by name.

use crate::grad::Grad;
use crate::tape::{Grads, Tape, Var};
use crate::tensor::Tensor;
use mb_common::{Error, Result};

/// Stable positional handle to one parameter inside a [`Params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The parameter's position in registration order — also its index
    /// into the var vector returned by [`Params::inject`] and into a
    /// [`GradVec`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// An ordered, named collection of trainable tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl Params {
    /// An empty collection.
    pub fn new() -> Self {
        Params::default()
    }

    /// Register a parameter. Names must be unique.
    ///
    /// # Panics
    /// Panics on a duplicate name — model construction bugs should fail
    /// loudly.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.names.contains(&name), "Params::add: duplicate parameter name {name:?}");
        self.names.push(name);
        self.tensors.push(tensor);
        ParamId(self.tensors.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn numel(&self) -> usize {
        self.tensors.iter().map(Tensor::numel).sum()
    }

    /// Borrow a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutably borrow a parameter tensor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Look up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Result<ParamId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(ParamId)
            .ok_or_else(|| Error::NotFound(format!("parameter {name:?}")))
    }

    /// Iterate over `(name, tensor)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(self.tensors.iter())
    }

    /// Register every parameter as a leaf on `tape`, returning the vars
    /// in parameter order. The tape borrows the tensors; nothing is
    /// copied.
    pub fn inject<'p>(&'p self, tape: &mut Tape<'p>) -> Vec<Var> {
        self.tensors.iter().map(|t| tape.leaf(t)).collect()
    }

    /// Move the per-parameter gradients out of a backward pass, in
    /// parameter order; an unconnected matrix parameter gets the empty
    /// row set, any other a zero tensor.
    ///
    /// `vars` must be the vector returned by [`Params::inject`] on the
    /// tape that produced `grads`.
    pub fn collect_grads(&self, vars: &[Var], mut grads: Grads) -> GradVec {
        assert_eq!(vars.len(), self.tensors.len(), "collect_grads: var/param count mismatch");
        let gs = vars
            .iter()
            .zip(&self.tensors)
            .map(|(v, t)| grads.take(*v).unwrap_or_else(|| Grad::zero(t.shape())))
            .collect();
        GradVec { grads: gs }
    }

    /// True if any parameter contains NaN or infinity.
    pub fn has_non_finite(&self) -> bool {
        self.tensors.iter().any(Tensor::has_non_finite)
    }

    /// In-place `self += k * delta` across all parameters (used by the
    /// meta-forward step, Eq. 9, to form the pseudo-updated model).
    ///
    /// # Panics
    /// Panics on shape or length mismatch.
    pub fn axpy(&mut self, k: f64, delta: &GradVec) {
        assert_eq!(self.tensors.len(), delta.grads.len(), "Params::axpy length mismatch");
        for (t, d) in self.tensors.iter_mut().zip(&delta.grads) {
            d.add_to(k, t);
        }
    }
}

/// Per-parameter gradients aligned with a [`Params`] order. An
/// embedding table's entry is row-sparse when it comes off a tape
/// ([`Grad::Rows`]); every operation below gives the bits of the
/// all-dense computation (see [`crate::grad`] for the one caveat, the
/// sign of an exactly-zero dot or norm).
#[derive(Debug, Clone, PartialEq)]
pub struct GradVec {
    grads: Vec<Grad>,
}

impl GradVec {
    /// Construct from raw tensors (must align with the target `Params`).
    pub fn from_tensors(grads: Vec<Tensor>) -> Self {
        GradVec::from_grads(grads.into_iter().map(Grad::Dense).collect())
    }

    /// Construct from per-parameter gradients in either form (must
    /// align with the target `Params`).
    pub fn from_grads(grads: Vec<Grad>) -> Self {
        GradVec { grads }
    }

    /// A dense zero gradient matching `params` shapes — the accumulator
    /// an optimizer step's update is summed into.
    pub fn zeros_like(params: &Params) -> Self {
        GradVec::from_tensors(
            params.tensors.iter().map(|t| Tensor::zeros(t.shape().to_vec())).collect(),
        )
    }

    /// Borrow the gradient for one parameter.
    pub fn get(&self, id: ParamId) -> &Grad {
        &self.grads[id.0]
    }

    /// Iterate over gradients in parameter order.
    pub fn iter(&self) -> impl Iterator<Item = &Grad> {
        self.grads.iter()
    }

    /// Number of `f64` elements held across all gradients: less than
    /// the parameter count when a table's gradient is row-sparse.
    pub fn stored_len(&self) -> usize {
        self.grads.iter().map(Grad::stored_len).sum()
    }

    /// Number of gradient tensors.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True if there are no gradient tensors.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Flat dot product with another gradient vector — the core of the
    /// analytic meta-backward step (Eq. 12): `⟨∇l_g(φ̂), ∇l_j(φ)⟩`.
    ///
    /// # Panics
    /// Panics on misaligned shapes.
    pub fn dot(&self, other: &GradVec) -> f64 {
        self.masked_dot(other, &|_| true)
    }

    /// Dot product restricted to parameters selected by `keep`
    /// (indexed in parameter order). Used by the meta-reweighting to
    /// compare only the *shared* dense parameters, where per-example
    /// gradient geometry is informative.
    pub fn masked_dot(&self, other: &GradVec, keep: &dyn Fn(usize) -> bool) -> f64 {
        assert_eq!(self.grads.len(), other.grads.len(), "GradVec::masked_dot length mismatch");
        self.grads
            .iter()
            .zip(&other.grads)
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, (a, b))| a.dot(b))
            .sum()
    }

    /// L2 norm restricted to parameters selected by `keep`.
    pub fn masked_norm(&self, keep: &dyn Fn(usize) -> bool) -> f64 {
        self.grads
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, g)| g.sq_sum())
            .sum::<f64>()
            .sqrt()
    }

    /// Global L2 norm across all gradients.
    pub fn norm(&self) -> f64 {
        self.masked_norm(&|_| true)
    }

    /// In-place `self += k * other`.
    pub fn axpy(&mut self, k: f64, other: &GradVec) {
        assert_eq!(self.grads.len(), other.grads.len(), "GradVec::axpy length mismatch");
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            a.axpy(k, b);
        }
    }

    /// True if any gradient contains NaN or infinity.
    pub fn has_non_finite(&self) -> bool {
        self.grads.iter().any(Grad::has_non_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn sample_params() -> (Params, ParamId, ParamId) {
        let mut p = Params::new();
        let w = p.add("w", Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = p.add("b", Tensor::vector(&[0.5, -0.5]));
        (p, w, b)
    }

    #[test]
    fn add_get_and_lookup() {
        let (p, w, b) = sample_params();
        assert_eq!(p.len(), 2);
        assert_eq!(p.numel(), 6);
        assert_eq!(p.get(w).shape(), &[2, 2]);
        assert_eq!(p.id_of("b").unwrap(), b);
        assert!(p.id_of("missing").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.add("w", Tensor::scalar(1.0));
        p.add("w", Tensor::scalar(2.0));
    }

    #[test]
    fn inject_and_collect_grads() {
        let (p, w, b) = sample_params();
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        // loss = sum(w_tensor) — b unconnected.
        let l = tape.sum_all(vars[w.0]);
        let grads = tape.backward(l);
        let gv = p.collect_grads(&vars, grads);
        assert_eq!(gv.get(w).to_dense().data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(gv.get(b).to_dense().data(), &[0.0, 0.0]);
    }

    #[test]
    fn gradvec_dot_and_norm() {
        let a = GradVec::from_tensors(vec![Tensor::vector(&[1.0, 2.0]), Tensor::scalar(3.0)]);
        let b = GradVec::from_tensors(vec![Tensor::vector(&[4.0, 5.0]), Tensor::scalar(6.0)]);
        assert_eq!(a.dot(&b), 4.0 + 10.0 + 18.0);
        assert!((a.norm() - 14.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn params_axpy_applies_update() {
        let (mut p, w, _) = sample_params();
        let g = GradVec::from_tensors(vec![
            Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]),
            Tensor::vector(&[0.0, 0.0]),
        ]);
        p.axpy(-0.5, &g);
        assert_eq!(p.get(w).data(), &[0.5, 2.0, 3.0, 3.5]);
    }

    #[test]
    fn non_finite_detection() {
        let (mut p, w, _) = sample_params();
        assert!(!p.has_non_finite());
        p.get_mut(w).data_mut()[0] = f64::NAN;
        assert!(p.has_non_finite());
    }
}
