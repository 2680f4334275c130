//! Property-based tests of tensor algebra and autodiff invariants.

use mb_check::gen::{self, F64In, VecGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_tensor::{Tape, Tensor};

fn vec_f64(len: usize) -> VecGen<F64In> {
    gen::vec_of(gen::f64_in(-10.0..10.0), len)
}

mb_check::check! {
    #![config(cases = 64)]

    fn add_is_commutative_and_associative(a in vec_f64(12), b in vec_f64(12), c in vec_f64(12)) {
        let ta = Tensor::from_vec(vec![3, 4], a);
        let tb = Tensor::from_vec(vec![3, 4], b);
        let tc = Tensor::from_vec(vec![3, 4], c);
        let ab = ta.add(&tb);
        let ba = tb.add(&ta);
        for (x, y) in ab.data().iter().zip(ba.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
        let left = ta.add(&tb).add(&tc);
        let right = ta.add(&tb.add(&tc));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    fn matmul_distributes_over_addition(a in vec_f64(6), b in vec_f64(6), c in vec_f64(6)) {
        // (A + B) C == AC + BC
        let ta = Tensor::from_vec(vec![2, 3], a);
        let tb = Tensor::from_vec(vec![2, 3], b);
        let tc = Tensor::from_vec(vec![3, 2], c);
        let lhs = ta.add(&tb).matmul(&tc);
        let rhs = ta.matmul(&tc).add(&tb.matmul(&tc));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    fn transpose_is_involutive_and_preserves_norm(a in vec_f64(20)) {
        let t = Tensor::from_vec(vec![4, 5], a);
        let tt = t.transpose().transpose();
        prop_assert_eq!(t.clone(), tt);
        prop_assert!((t.norm() - t.transpose().norm()).abs() < 1e-12);
    }

    fn grad_of_sum_is_ones(a in vec_f64(8)) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![8], a));
        let s = tape.sum_all(x);
        let g = tape.backward(s);
        for v in g.get(x).unwrap().to_dense().data() {
            prop_assert!((v - 1.0).abs() < 1e-12);
        }
    }

    fn grad_is_linear_in_upstream_scale(a in vec_f64(6), k in gen::f64_in(-3.0..3.0)) {
        // d(k·f)/dx == k · df/dx for f = sum(tanh(x)).
        let x0 = Tensor::from_vec(vec![6], a);
        let grad_of = |scale: f64| {
            let mut tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let h = tape.tanh(x);
            let s = tape.sum_all(h);
            let scaled = tape.scale(s, scale);
            let g = tape.backward(scaled);
            g.get(x).unwrap().to_dense()
        };
        let g1 = grad_of(1.0);
        let gk = grad_of(k);
        for (x, y) in g1.data().iter().zip(gk.data()) {
            prop_assert!((k * x - y).abs() < 1e-9);
        }
    }

    fn row_l2_normalize_produces_unit_rows(a in vec_f64(15)) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3, 5], a));
        let y = tape.row_l2_normalize(x, 1e-9);
        for i in 0..3 {
            let n: f64 = tape.value(y).row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            // Unit, unless the input row was (near) zero.
            prop_assert!(n < 1.0 + 1e-9);
            let input_norm: f64 = tape.value(x).row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            if input_norm > 1e-6 {
                prop_assert!((n - 1.0).abs() < 1e-9);
            }
        }
    }

    fn in_batch_neg_loss_is_finite_and_excluding_gold_increases_it(a in vec_f64(16)) {
        let scores = Tensor::from_vec(vec![4, 4], a);
        let loss_with = {
            let mut tape = Tape::new();
            let s = tape.leaf(scores.clone());
            let l = tape.in_batch_neg_loss(s, false);
            tape.value(l).clone()
        };
        let loss_without = {
            let mut tape = Tape::new();
            let s = tape.leaf(scores);
            let l = tape.in_batch_neg_loss(s, true);
            tape.value(l).clone()
        };
        for (w, wo) in loss_with.data().iter().zip(loss_without.data()) {
            prop_assert!(w.is_finite() && wo.is_finite());
            // Including the gold enlarges the denominator: lse over a
            // superset is >= lse over the subset.
            prop_assert!(w + 1e-9 >= *wo);
            // And the softmax-CE form is non-negative.
            prop_assert!(*w >= -1e-9);
        }
    }

    fn softmax_ce_rows_nonnegative(
        a in vec_f64(12),
        t0 in gen::usize_in(0..4),
        t1 in gen::usize_in(0..4),
        t2 in gen::usize_in(0..4),
    ) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3, 4], a));
        let l = tape.softmax_ce_rows(x, vec![t0, t1, t2]);
        for v in tape.value(l).data() {
            prop_assert!(*v >= -1e-9 && v.is_finite());
        }
    }
}
