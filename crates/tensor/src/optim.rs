//! First-order optimizers: SGD (with momentum and weight decay) and Adam.
//!
//! The paper trains both encoders with Adam at lr 2e-5 (BERT scale); the
//! CPU-scale encoders here use the same optimizers with lrs tuned to the
//! smaller models. The meta-forward step of Algorithm 1 is a *plain*
//! SGD step by construction (Eq. 9), independent of the outer optimizer.

use crate::params::{GradVec, Params};
use crate::tensor::Tensor;
use mb_common::{Error, Result};

/// A snapshot of an optimizer's full internal state — hyperparameters
/// plus accumulated moments — sufficient to resume training
/// bit-identically after a restart. Produced by [`Optimizer::state`]
/// and consumed by [`Optimizer::restore`]; persisted inside `mb-params
/// v2` checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimState {
    /// State of an [`Sgd`] optimizer.
    Sgd {
        /// Learning rate.
        lr: f64,
        /// Momentum coefficient (0 disables).
        momentum: f64,
        /// Decoupled weight decay (0 disables).
        weight_decay: f64,
        /// Momentum buffers, if any step has allocated them.
        velocity: Option<Vec<Tensor>>,
    },
    /// State of an [`Adam`] optimizer.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay rate.
        beta1: f64,
        /// Second-moment decay rate.
        beta2: f64,
        /// Denominator fuzz.
        eps: f64,
        /// Steps taken (drives bias correction).
        t: u64,
        /// First- and second-moment buffers, if allocated.
        moments: Option<(Vec<Tensor>, Vec<Tensor>)>,
    },
}

/// A first-order optimizer over a [`Params`] collection.
pub trait Optimizer {
    /// Apply one update step in place.
    ///
    /// # Panics
    /// Implementations panic if `grads` does not align with `params`.
    fn step(&mut self, params: &mut Params, grads: &GradVec);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Override the learning rate (e.g., for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);

    /// Snapshot the full state for checkpointing.
    fn state(&self) -> OptimState;

    /// Restore a snapshot taken from the same kind of optimizer.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] if `state` was produced by a different
    /// optimizer kind.
    fn restore(&mut self, state: OptimState) -> Result<()>;
}

/// Stochastic gradient descent with optional momentum and decoupled
/// weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocity: Option<Vec<Tensor>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: None }
    }

    /// Enable classical momentum.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Enable decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params, grads: &GradVec) {
        assert_eq!(params.len(), grads.len(), "Sgd::step: param/grad count mismatch");
        if self.momentum == 0.0 {
            for i in 0..params.len() {
                let id = crate::params::ParamId(i);
                let p = params.get_mut(id);
                if self.weight_decay > 0.0 {
                    let decay = 1.0 - self.lr * self.weight_decay;
                    for v in p.data_mut() {
                        *v *= decay;
                    }
                }
                let p = p.data_mut();
                grads.get(id).for_each_span(|at, g| {
                    for (pj, &gj) in p[at..at + g.len()].iter_mut().zip(g) {
                        *pj += -self.lr * gj;
                    }
                });
            }
            return;
        }
        let velocity = self.velocity.get_or_insert_with(|| {
            (0..params.len())
                .map(|i| Tensor::zeros(params.get(crate::params::ParamId(i)).shape().to_vec()))
                .collect()
        });
        for i in 0..params.len() {
            let id = crate::params::ParamId(i);
            let v = &mut velocity[i];
            // v <- momentum * v + g
            for x in v.data_mut() {
                *x *= self.momentum;
            }
            let vd = v.data_mut();
            grads.get(id).for_each_span(|at, g| {
                for (vj, &gj) in vd[at..at + g.len()].iter_mut().zip(g) {
                    *vj += gj;
                }
            });
            let p = params.get_mut(id);
            if self.weight_decay > 0.0 {
                let decay = 1.0 - self.lr * self.weight_decay;
                for x in p.data_mut() {
                    *x *= decay;
                }
            }
            p.axpy(-self.lr, v);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn state(&self) -> OptimState {
        OptimState::Sgd {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            velocity: self.velocity.clone(),
        }
    }

    fn restore(&mut self, state: OptimState) -> Result<()> {
        match state {
            OptimState::Sgd { lr, momentum, weight_decay, velocity } => {
                self.lr = lr;
                self.momentum = momentum;
                self.weight_decay = weight_decay;
                self.velocity = velocity;
                Ok(())
            }
            OptimState::Adam { .. } => {
                Err(Error::Checkpoint("cannot restore Adam state into an Sgd optimizer".into()))
            }
        }
    }
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
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params, grads: &GradVec) {
        assert_eq!(params.len(), grads.len(), "Adam::step: param/grad count mismatch");
        let n = params.len();
        let zeros = |params: &Params| -> Vec<Tensor> {
            (0..n)
                .map(|i| Tensor::zeros(params.get(crate::params::ParamId(i)).shape().to_vec()))
                .collect()
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
            let id = crate::params::ParamId(i);
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

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn state(&self) -> OptimState {
        OptimState::Adam {
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

    fn restore(&mut self, state: OptimState) -> Result<()> {
        match state {
            OptimState::Adam { lr, beta1, beta2, eps, t, moments } => {
                self.lr = lr;
                self.beta1 = beta1;
                self.beta2 = beta2;
                self.eps = eps;
                self.t = t;
                match moments {
                    Some((m, v)) => {
                        self.m = Some(m);
                        self.v = Some(v);
                    }
                    None => {
                        self.m = None;
                        self.v = None;
                    }
                }
                Ok(())
            }
            OptimState::Sgd { .. } => {
                Err(Error::Checkpoint("cannot restore Sgd state into an Adam optimizer".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise f(x) = ||x - target||² and check convergence.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f64 {
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
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(run_quadratic(&mut opt, 100) < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.02).with_momentum(0.9);
        assert!(run_quadratic(&mut opt, 400) < 1e-5);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(run_quadratic(&mut opt, 300) < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut params = Params::new();
        let x = params.add("x", Tensor::vector(&[10.0]));
        let g = GradVec::zeros_like(&params);
        let mut opt = Sgd::new(0.1).with_weight_decay(1.0);
        opt.step(&mut params, &g);
        assert!((params.get(x).data()[0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn learning_rate_get_set() {
        let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(0.01));
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.002);
        assert_eq!(opt.learning_rate(), 0.002);
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
                    opt.restore(state).unwrap();
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
    fn sgd_state_round_trips_velocity() {
        let mut params = Params::new();
        params.add("x", Tensor::vector(&[1.0, 2.0]));
        let g = GradVec::from_tensors(vec![Tensor::vector(&[0.5, -0.5])]);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        opt.step(&mut params, &g);
        let state = opt.state();
        let mut fresh = Sgd::new(0.0);
        fresh.restore(state.clone()).unwrap();
        assert_eq!(fresh.state(), state);
    }

    #[test]
    fn restore_rejects_kind_mismatch() {
        let mut sgd = Sgd::new(0.1);
        let mut adam = Adam::new(0.1);
        assert!(sgd.restore(adam.state()).is_err());
        assert!(adam.restore(Sgd::new(0.1).state()).is_err());
        let _ = &mut adam;
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
