//! Property tests pinning the row-sparse gradient form to the dense
//! one — by bit pattern, not within a tolerance.
//!
//! `dense_bag_embed_grad` is the `bag_embed` backward as the tape wrote
//! it before table gradients went row-sparse (a full `[vocab, dim]`
//! tensor, every bag scattered into it in order); it lives here as the
//! oracle. The suite checks that
//!
//! * the row form a tape produces, densified, is that tensor bit for
//!   bit — over empty bags, repeated tokens, a token shared by two
//!   `bag_embed` nodes on one table, bags hitting row 0 and the last
//!   row, and upstream gradients holding `−0.0`;
//! * `dot` / `masked_dot` / `masked_norm` / `norm` / `axpy` give the
//!   all-dense result for every pairing of forms (dense·dense is the
//!   reference; dense·rows, rows·dense and rows·rows are held to it);
//! * Adam stepping on the row form leaves the parameters and moments
//!   the dense form would.
//!
//! **The one place a sign may differ** (`mb_tensor::grad` states it
//! too): a dot or a norm over the row form skips the `±0.0` terms the
//! dense fold adds for absent rows, so a result that is *exactly zero*
//! may be the other zero; and `dense.axpy(k, rows)` leaves alone a
//! dense `−0.0` sitting in a row `rows` lacks, which the dense
//! `−0.0 + k·0.0` would turn into `+0.0`. `same_value` and
//! `assert_axpy_into_dense` below admit exactly those two cases and
//! nothing else.

use mb_check::gen;
use mb_check::{prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_tensor::grad::{Grad, RowGrad};
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use mb_tensor::{Params, Tape, Tensor};

/// The parent's dense `Op::BagEmbed` backward, verbatim.
fn dense_bag_embed_grad(rows: usize, dim: usize, bags: &[Vec<u32>], g: &Tensor) -> Tensor {
    let mut gt = Tensor::zeros(vec![rows, dim]);
    for (i, bag) in bags.iter().enumerate() {
        if bag.is_empty() {
            continue;
        }
        let inv = 1.0 / bag.len() as f64;
        let grow = g.row(i);
        for &id in bag {
            let dst = &mut gt.data_mut()[id as usize * dim..(id as usize + 1) * dim];
            for (d, &gv) in dst.iter_mut().zip(grow) {
                *d += inv * gv;
            }
        }
    }
    gt
}

/// Magnitudes spanning ~20 orders, both signs, and both zeros, so a
/// reordered fold or a dropped `+ 0.0` shows as a differing bit.
fn adversarial(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => sign * rng.f64() * 10f64.powi(rng.below(21) as i32 - 10),
            }
        })
        .collect()
}

/// Bags over a `vocab`-row table: some empty, tokens repeated within a
/// bag, and (when `edges`) row 0 and the last row both hit.
fn bags(vocab: usize, n: usize, edges: bool, rng: &mut Rng) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = (0..n)
        .map(|_| (0..rng.below(6)).map(|_| rng.below(vocab) as u32).collect::<Vec<u32>>())
        .collect();
    if edges {
        out[0].extend([0, vocab as u32 - 1, 0]);
    }
    out
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A random row-sparse table gradient: each row kept with probability
/// about a third.
fn row_grad(vocab: usize, dim: usize, rng: &mut Rng) -> Grad {
    let ids: Vec<u32> = (0..vocab as u32).filter(|_| rng.below(3) == 0).collect();
    let values = adversarial(ids.len() * dim, rng);
    Grad::Rows(RowGrad::new(vocab, dim, ids, values))
}

/// A two-parameter gradient vector — a table and a bias — with the
/// table in the given form.
fn grad_vec(table: &Grad, dense: bool, bias: &[f64]) -> GradVec {
    let table = if dense { Grad::Dense(table.to_dense()) } else { table.clone() };
    GradVec::from_grads(vec![table, Grad::Dense(Tensor::vector(bias))])
}

/// Equal by bits, or both exactly zero (the skipped `±0.0` terms).
fn same_value(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn dense_bits(g: &GradVec) -> Vec<u64> {
    g.iter().flat_map(|g| bits(&g.to_dense())).collect()
}

/// `dense.axpy(k, rows)` against the all-dense reference: bit-equal
/// everywhere except a `−0.0` it left alone where the reference
/// computed `−0.0 + k·0.0 = +0.0`.
fn assert_axpy_into_dense(got: &GradVec, want: &GradVec) -> Result<(), String> {
    for (g, w) in dense_bits(got).into_iter().zip(dense_bits(want)) {
        let untouched_negative_zero = g == (-0.0f64).to_bits() && w == 0.0f64.to_bits();
        prop_assert!(g == w || untouched_negative_zero, "axpy: {g:#x} vs {w:#x}");
    }
    Ok(())
}

const FORMS: [bool; 2] = [true, false];

mb_check::check! {
    #![config(cases = 96)]

    fn tape_row_gradient_densified_is_the_dense_gradient(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (vocab, dim) = (1 + rng.below(40), 1 + rng.below(5));
        let table = Tensor::from_vec(vec![vocab, dim], adversarial(vocab * dim, &mut rng));
        // Two lookups on one table; the second re-uses tokens of the
        // first, so their row sets overlap without being equal.
        let first = bags(vocab, 1 + rng.below(5), rng.below(2) == 0, &mut rng);
        let mut second = bags(vocab, 1 + rng.below(5), false, &mut rng);
        second[0].extend(first[0].iter().take(2));
        let upstream = |n: usize, rng: &mut Rng| Tensor::from_vec(vec![n, dim], adversarial(n * dim, rng));
        let (c1, c2) = (upstream(first.len(), &mut rng), upstream(second.len(), &mut rng));

        // loss = Σ (e₁ ⊙ c₁) + Σ (e₂ ⊙ c₂): the upstream gradient of eᵢ
        // is 1.0 · cᵢ = cᵢ, signed zeros included.
        let mut tape = Tape::new();
        let tv = tape.leaf(&table);
        let branch = |tape: &mut Tape<'_>, bags: &[Vec<u32>], c: &Tensor| {
            let e = tape.bag_embed(tv, bags.to_vec());
            let c = tape.leaf(c.clone());
            let m = tape.mul_elem(e, c);
            tape.sum_all(m)
        };
        let l1 = branch(&mut tape, &first, &c1);
        let l2 = branch(&mut tape, &second, &c2);
        let loss = tape.add(l1, l2);
        let grads = tape.backward(loss);
        let got = grads.get(tv).expect("the table is connected");

        // The dense tape met the later node first and added the earlier
        // one into it.
        let mut want = dense_bag_embed_grad(vocab, dim, &second, &c2);
        want.axpy(1.0, &dense_bag_embed_grad(vocab, dim, &first, &c1));
        prop_assert_eq!(bits(&got.to_dense()), bits(&want));

        let mut distinct: Vec<u32> = first.iter().chain(&second).flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(matches!(got, Grad::Rows(_)), "a table gradient leaves the tape row-sparse");
        prop_assert_eq!(got.stored_len(), distinct.len() * dim);
    }

    fn reductions_agree_with_the_dense_form_in_every_pairing(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (vocab, dim) = (1 + rng.below(24), 1 + rng.below(4));
        let (a, b) = (row_grad(vocab, dim, &mut rng), row_grad(vocab, dim, &mut rng));
        let (bias_a, bias_b) = (adversarial(3, &mut rng), adversarial(3, &mut rng));
        let only_table = |i: usize| i == 0;
        let reference = (grad_vec(&a, true, &bias_a), grad_vec(&b, true, &bias_b));
        for a_dense in FORMS {
            for b_dense in FORMS {
                let (x, y) = (grad_vec(&a, a_dense, &bias_a), grad_vec(&b, b_dense, &bias_b));
                let what = format!("a dense: {a_dense}, b dense: {b_dense}");
                prop_assert!(same_value(x.dot(&y), reference.0.dot(&reference.1)), "dot, {what}");
                prop_assert!(
                    same_value(
                        x.masked_dot(&y, &only_table),
                        reference.0.masked_dot(&reference.1, &only_table)
                    ),
                    "masked_dot, {what}"
                );
            }
            let x = grad_vec(&a, a_dense, &bias_a);
            prop_assert!(same_value(x.norm(), reference.0.norm()), "norm, dense: {a_dense}");
            prop_assert!(
                same_value(x.masked_norm(&only_table), reference.0.masked_norm(&only_table)),
                "masked_norm, dense: {a_dense}"
            );
            prop_assert_eq!(x.has_non_finite(), reference.0.has_non_finite());
        }
    }

    fn axpy_agrees_with_the_dense_form_in_every_pairing(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (vocab, dim) = (1 + rng.below(24), 1 + rng.below(4));
        let (a, b) = (row_grad(vocab, dim, &mut rng), row_grad(vocab, dim, &mut rng));
        let (bias_a, bias_b) = (adversarial(3, &mut rng), adversarial(3, &mut rng));
        let k = [1.0, 0.25, -1.5, 1.0 / 16.0][rng.below(4)];
        let mut want = grad_vec(&a, true, &bias_a);
        want.axpy(k, &grad_vec(&b, true, &bias_b));
        for a_dense in FORMS {
            for b_dense in FORMS {
                let mut got = grad_vec(&a, a_dense, &bias_a);
                got.axpy(k, &grad_vec(&b, b_dense, &bias_b));
                if a_dense && !b_dense {
                    assert_axpy_into_dense(&got, &want)?;
                } else {
                    prop_assert_eq!(dense_bits(&got), dense_bits(&want), "a dense: {}, b dense: {}", a_dense, b_dense);
                }
                // Rows stay rows unless a dense operand forces the table.
                let stays_sparse = !a_dense && !b_dense;
                prop_assert_eq!(matches!(got.iter().next(), Some(Grad::Rows(_))), stays_sparse);
            }
        }
    }

    fn an_optimizer_steps_the_same_on_either_form(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (vocab, dim) = (1 + rng.below(24), 1 + rng.below(4));
        let steps: Vec<(Grad, Vec<f64>)> =
            (0..3).map(|_| (row_grad(vocab, dim, &mut rng), adversarial(3, &mut rng))).collect();
        let table = Tensor::from_vec(vec![vocab, dim], adversarial(vocab * dim, &mut rng));
        let run = |dense: bool| {
            let mut params = Params::new();
            params.add("emb", table.clone());
            params.add("b", Tensor::vector(&[0.5, -0.0, -2.0]));
            let mut opt = Adam::new(0.01);
            for (g, bias) in &steps {
                opt.step(&mut params, &grad_vec(g, dense, bias));
            }
            let bits: Vec<u64> = params.iter().flat_map(|(_, t)| bits(t)).collect();
            (bits, opt.state())
        };
        let (dense_params, dense_state) = run(true);
        let (row_params, row_state) = run(false);
        prop_assert_eq!(row_params, dense_params);
        prop_assert!(row_state == dense_state, "optimizer moments differ between forms");
    }
}

/// The stated exception, reproduced: disjoint row sets have no common
/// term, so the row form's dot is the empty sum while the dense fold
/// added a `+0.0` per element — equal, but not necessarily by sign.
#[test]
fn a_dot_of_disjoint_rows_is_zero_of_either_sign() {
    let a = Grad::Rows(RowGrad::new(4, 2, vec![0], vec![1.0, -2.0]));
    let b = Grad::Rows(RowGrad::new(4, 2, vec![3], vec![5.0, 7.0]));
    let sparse = a.dot(&b);
    let dense = Grad::Dense(a.to_dense()).dot(&Grad::Dense(b.to_dense()));
    assert_eq!(dense.to_bits(), 0.0f64.to_bits());
    assert!(sparse == 0.0 && same_value(sparse, dense));
}
