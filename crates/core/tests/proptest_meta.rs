//! Property-based tests of the meta-weight computation (Eqs. 12–14).

use mb_check::gen::{self, F64In, VecGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_core::reweight::{meta_example_weights, meta_example_weights_masked};
use mb_tensor::params::GradVec;
use mb_tensor::Tensor;

fn gradvec(data: Vec<f64>) -> GradVec {
    GradVec::from_tensors(vec![Tensor::from_vec(vec![data.len()], data)])
}

fn grads(n: usize, d: usize) -> VecGen<VecGen<F64In>> {
    gen::vec_of(gen::vec_of(gen::f64_in(-5.0..5.0), d), 1..n)
}

mb_check::check! {
    #![config(cases = 128)]

    fn weights_are_a_subprobability_distribution(
        gs in grads(10, 6),
        seed in gen::vec_of(gen::f64_in(-5.0..5.0), 6),
    ) {
        let example: Vec<GradVec> = gs.into_iter().map(gradvec).collect();
        let seed_grad = gradvec(seed);
        for normalize in [false, true] {
            let w = meta_example_weights_masked(&example, &seed_grad, normalize, &|_| true);
            prop_assert_eq!(w.len(), example.len());
            prop_assert!(w.iter().all(|&x| x >= 0.0));
            let total: f64 = w.iter().sum();
            // Eq. 14 with the δ guard: exactly 1 or exactly 0.
            prop_assert!((total - 1.0).abs() < 1e-9 || total == 0.0, "total {total}");
        }
    }

    fn anti_aligned_examples_get_zero_weight(seed in gen::vec_of(gen::f64_in(0.1..5.0), 6)) {
        let seed_grad = gradvec(seed.clone());
        let aligned = gradvec(seed.clone());
        let anti = gradvec(seed.iter().map(|x| -x).collect());
        let w = meta_example_weights(&[aligned, anti], &seed_grad);
        prop_assert!(w[0] > 0.99);
        prop_assert_eq!(w[1], 0.0);
    }

    fn weights_invariant_to_positive_seed_scaling(
        gs in grads(8, 5),
        seed in gen::vec_of(gen::f64_in(-5.0..5.0), 5),
        k in gen::f64_in(0.01..100.0),
    ) {
        // Normalisation (Eq. 14) cancels any positive rescaling of the
        // seed gradient.
        let example: Vec<GradVec> = gs.into_iter().map(gradvec).collect();
        let s1 = gradvec(seed.clone());
        let s2 = gradvec(seed.iter().map(|x| x * k).collect());
        let w1 = meta_example_weights(&example, &s1);
        let w2 = meta_example_weights(&example, &s2);
        for (a, b) in w1.iter().zip(&w2) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    fn normalized_weights_invariant_to_example_scaling(
        seed in gen::vec_of(gen::f64_in(-5.0..5.0), 5),
        example in gen::vec_of(gen::f64_in(-5.0..5.0), 5),
        k in gen::f64_in(0.01..100.0),
    ) {
        // With normalize=true, rescaling one example's gradient must not
        // change the weights (the magnitude confound is removed).
        let seed_grad = gradvec(seed);
        let e1 = gradvec(example.clone());
        let e2 = gradvec(example.iter().map(|x| x * k).collect());
        let other = gradvec(vec![1.0, 0.5, -0.3, 0.2, 0.9]);
        let w1 = meta_example_weights_masked(&[e1, other.clone()], &seed_grad, true, &|_| true);
        let w2 = meta_example_weights_masked(&[e2, other], &seed_grad, true, &|_| true);
        for (a, b) in w1.iter().zip(&w2) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    fn zero_seed_gradient_triggers_delta_guard(gs in grads(6, 4)) {
        let example: Vec<GradVec> = gs.into_iter().map(gradvec).collect();
        let zero = gradvec(vec![0.0; 4]);
        let w = meta_example_weights(&example, &zero);
        prop_assert!(w.iter().all(|&x| x == 0.0));
    }
}
