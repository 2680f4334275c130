//! Adam, the one optimizer.
//!
//! The paper trains both encoders with Adam at lr 2e-5 (BERT scale); the
//! CPU-scale encoders here use Adam with lrs tuned to the smaller
//! models. The meta-forward step of Algorithm 1 is a *plain* SGD step
//! by construction (Eq. 9), written inline where it is taken and
//! independent of the outer optimizer.

use crate::params::{GradVec, ParamId, Params};
use crate::tensor::Tensor;

/// A snapshot of an [`Adam`] optimizer's full internal state —
/// hyperparameters plus accumulated moments — sufficient to resume
/// training bit-identically after a restart. Produced by
/// [`Adam::state`] and consumed by [`Adam::restore`]; persisted inside
/// `mb-params v2` checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimState {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay rate.
    pub beta1: f64,
    /// Second-moment decay rate.
    pub beta2: f64,
    /// Denominator fuzz.
    pub eps: f64,
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First- and second-moment buffers, if allocated.
    pub moments: Option<(Vec<Tensor>, Vec<Tensor>)>,
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<Vec<Tensor>>,
    v: Option<Vec<Tensor>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: None, v: None }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update step in place.
    ///
    /// # Panics
    /// Panics if `grads` does not align with `params`.
    pub fn step(&mut self, params: &mut Params, grads: &GradVec) {
        assert_eq!(params.len(), grads.len(), "Adam::step: param/grad count mismatch");
        let n = params.len();
        let zeros = |params: &Params| -> Vec<Tensor> {
            (0..n).map(|i| Tensor::zeros(params.get(ParamId(i)).shape().to_vec())).collect()
        };
        if self.m.is_none() {
            self.m = Some(zeros(params));
            self.v = Some(zeros(params));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let m = self.m.as_mut().expect("initialized above");
        let v = self.v.as_mut().expect("initialized above");
        for i in 0..n {
            let id = ParamId(i);
            let mi = &mut m[i];
            let vi = &mut v[i];
            let (md, vd) = (mi.data_mut(), vi.data_mut());
            grads.get(id).for_each_span(|at, g| {
                let span = at..at + g.len();
                for ((mj, vj), &gj) in md[span.clone()].iter_mut().zip(&mut vd[span]).zip(g) {
                    *mj = self.beta1 * *mj + (1.0 - self.beta1) * gj;
                    *vj = self.beta2 * *vj + (1.0 - self.beta2) * gj * gj;
                }
            });
            let p = params.get_mut(id);
            for ((pj, &mj), &vj) in p.data_mut().iter_mut().zip(mi.data()).zip(vi.data()) {
                let mhat = mj / bc1;
                let vhat = vj / bc2;
                *pj -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Snapshot the full state for checkpointing.
    pub fn state(&self) -> OptimState {
        OptimState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            moments: match (&self.m, &self.v) {
                (Some(m), Some(v)) => Some((m.clone(), v.clone())),
                _ => None,
            },
        }
    }

    /// Restore a snapshot taken by [`Adam::state`].
    pub fn restore(&mut self, state: OptimState) {
        let OptimState { lr, beta1, beta2, eps, t, moments } = state;
        (self.lr, self.beta1, self.beta2, self.eps, self.t) = (lr, beta1, beta2, eps, t);
        (self.m, self.v) = moments.unzip();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise f(x) = ||x - target||² and check convergence.
    fn run_quadratic(opt: &mut Adam, steps: usize) -> f64 {
        let target = Tensor::vector(&[1.0, -2.0, 3.0]);
        let mut params = Params::new();
        let x = params.add("x", Tensor::vector(&[0.0, 0.0, 0.0]));
        for _ in 0..steps {
            let mut tape = Tape::new();
            let vars = params.inject(&mut tape);
            let t = tape.leaf(target.clone());
            let d = tape.sub(vars[x.0], t);
            let sq = tape.mul_elem(d, d);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            let gv = params.collect_grads(&vars, grads);
            opt.step(&mut params, &gv);
        }
        params.get(x).sub(&target).norm()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(run_quadratic(&mut opt, 300) < 1e-4);
    }

    #[test]
    fn adam_state_restore_resumes_bit_identically() {
        let target = Tensor::vector(&[1.0, -2.0, 3.0]);
        let grad_at = |params: &Params| {
            let x = params.id_of("x").unwrap();
            let mut g = params.get(x).clone();
            let d = g.sub(&target);
            for (gi, di) in g.data_mut().iter_mut().zip(d.data()) {
                *gi = 2.0 * di;
            }
            GradVec::from_tensors(vec![g])
        };
        let run = |steps_then_snapshot: Option<u64>| -> Vec<f64> {
            let mut params = Params::new();
            let x = params.add("x", Tensor::vector(&[0.0, 0.0, 0.0]));
            let mut opt = Adam::new(0.05);
            for step in 0..20u64 {
                if Some(step) == steps_then_snapshot {
                    // Simulate a restart: snapshot, rebuild, restore.
                    let state = opt.state();
                    opt = Adam::new(999.0); // wrong lr, must be overwritten
                    opt.restore(state);
                }
                let g = grad_at(&params);
                opt.step(&mut params, &g);
            }
            params.get(x).data().to_vec()
        };
        let uninterrupted = run(None);
        for snapshot_at in [0, 1, 7, 19] {
            let resumed = run(Some(snapshot_at));
            let same = uninterrupted.iter().zip(&resumed).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "restore at step {snapshot_at} diverged: {uninterrupted:?} vs {resumed:?}"
            );
        }
    }

    #[test]
    fn adam_counts_steps() {
        let mut params = Params::new();
        params.add("x", Tensor::scalar(0.0));
        let g = GradVec::zeros_like(&params);
        let mut opt = Adam::new(0.1);
        opt.step(&mut params, &g);
        opt.step(&mut params, &g);
        assert_eq!(opt.steps(), 2);
    }
}
