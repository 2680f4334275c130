//! Finite-difference gradient verification.
//!
//! Used by this crate's own op tests and — crucially — by `mb-core`'s
//! meta-gradient tests, which verify the analytic reduction of Eq. 12
//! against central differences of the full bilevel objective.

use crate::params::{GradVec, ParamId, Params};
use crate::tensor::Tensor;

/// Central-difference gradient of `f` with respect to every parameter
/// in `params`, returned in parameter order.
pub fn numeric_grad_params(
    f: &mut dyn FnMut(&Params) -> f64,
    params: &Params,
    eps: f64,
) -> GradVec {
    let mut out = Vec::with_capacity(params.len());
    for pi in 0..params.len() {
        let id = ParamId(pi);
        let shape = params.get(id).shape().to_vec();
        let mut g = Tensor::zeros(shape);
        for i in 0..params.get(id).numel() {
            let mut pp = params.clone();
            pp.get_mut(id).data_mut()[i] += eps;
            let mut pm = params.clone();
            pm.get_mut(id).data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&pp) - f(&pm)) / (2.0 * eps);
        }
        out.push(g);
    }
    GradVec::from_tensors(out)
}

/// Maximum elementwise relative error between analytic and numeric
/// gradients (relative to `max(1, |a|, |b|)`).
pub fn max_rel_error(analytic: &GradVec, numeric: &GradVec) -> f64 {
    let mut worst: f64 = 0.0;
    for (a, b) in analytic.iter().zip(numeric.iter()) {
        for (&x, &y) in a.to_dense().data().iter().zip(b.to_dense().data()) {
            let scale = 1.0_f64.max(x.abs()).max(y.abs());
            worst = worst.max((x - y).abs() / scale);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn params_gradcheck_matches_autodiff() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_vec([2, 2], vec![0.3, -0.4, 0.1, 0.9]));
        let b = params.add("b", Tensor::vector(&[0.2, -0.1]));
        let _ = (w, b);

        let mut loss = |p: &Params| -> f64 {
            let mut tape = Tape::new();
            let vars = p.inject(&mut tape);
            let x = tape.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, -1.0, 0.5]));
            let y = tape.linear(x, vars[0], vars[1]);
            let h = tape.tanh(y);
            let l = tape.mean_all(h);
            tape.value(l).item()
        };

        let numeric = numeric_grad_params(&mut loss, &params, 1e-5);
        let analytic = {
            let mut tape = Tape::new();
            let vars = params.inject(&mut tape);
            let x = tape.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, -1.0, 0.5]));
            let y = tape.linear(x, vars[0], vars[1]);
            let h = tape.tanh(y);
            let l = tape.mean_all(h);
            let grads = tape.backward(l);
            params.collect_grads(&vars, grads)
        };
        assert!(max_rel_error(&analytic, &numeric) < 1e-6);
    }
}
