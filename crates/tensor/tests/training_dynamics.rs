//! Integration-level tests of training dynamics on the tensor
//! substrate: optimizer determinism and descent, and a small end-to-end
//! regression fit exercising most of the op set together.

use mb_common::Rng;
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use mb_tensor::{init, Params, Tape, Tensor};

/// Fit y = tanh(x W + b) V to a fixed random teacher network.
fn student_teacher_loss(seed: u64, steps: usize, lr: f64) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let n = 32;
    let x = Tensor::randn(vec![n, 4], 0.0, 1.0, &mut rng);
    // Teacher.
    let tw = Tensor::randn(vec![4, 6], 0.0, 0.8, &mut rng);
    let tv = Tensor::randn(vec![6, 1], 0.0, 0.8, &mut rng);
    let y = x.matmul(&tw).map(f64::tanh).matmul(&tv);

    let mut params = Params::new();
    params.add("w", init::xavier_uniform(4, 6, &mut rng));
    params.add("b", init::zeros_bias(6));
    params.add("v", init::xavier_uniform(6, 1, &mut rng));

    let loss_of = |p: &Params| -> (f64, GradVec) {
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let xv = tape.leaf(x.clone());
        let h = tape.linear(xv, vars[0], vars[1]);
        let h = tape.tanh(h);
        let zb = tape.leaf(Tensor::zeros(vec![1]));
        let pred = tape.linear(h, vars[2], zb);
        let yv = tape.leaf(y.clone());
        let d = tape.sub(pred, yv);
        let sq = tape.mul_elem(d, d);
        let l = tape.mean_all(sq);
        let value = tape.value(l).item();
        let grads = tape.backward(l);
        (value, p.collect_grads(&vars, grads))
    };

    let (initial, _) = loss_of(&params);
    let mut opt = Adam::new(lr);
    for _ in 0..steps {
        let (_, g) = loss_of(&params);
        opt.step(&mut params, &g);
    }
    let (fin, _) = loss_of(&params);
    (initial, fin)
}

#[test]
fn student_learns_the_teacher() {
    let (initial, fin) = student_teacher_loss(5, 400, 0.02);
    assert!(fin < initial * 0.05, "loss barely moved: {initial:.4} -> {fin:.4}");
}

#[test]
fn training_is_bitwise_deterministic() {
    let a = student_teacher_loss(9, 50, 0.01);
    let b = student_teacher_loss(9, 50, 0.01);
    assert_eq!(a, b);
}

#[test]
fn adams_first_step_moves_downhill() {
    // With zero moment state, Adam's first step moves by ~lr*sign(g).
    let mut rng = Rng::seed_from_u64(2);
    let target = Tensor::randn(vec![4], 0.0, 1.0, &mut rng);
    let loss = |p: &Params| -> (f64, GradVec) {
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let t = tape.leaf(target.clone());
        let d = tape.sub(vars[0], t);
        let sq = tape.mul_elem(d, d);
        let l = tape.sum_all(sq);
        let v = tape.value(l).item();
        let g = tape.backward(l);
        (v, p.collect_grads(&vars, g))
    };
    let mut opt = Adam::new(0.05);
    let mut params = Params::new();
    params.add("x", Tensor::zeros(vec![4]));
    let (before, g) = loss(&params);
    opt.step(&mut params, &g);
    let (after, _) = loss(&params);
    assert!(after < before, "Adam did not descend");
}
