//! Property tests pinning the cache-blocked matmul kernels to the
//! naive reference — **exactly**, by bit pattern, not within a
//! tolerance. Blocking may only regroup which output elements are
//! computed together; each element's accumulation chain (ascending
//! inner-dimension fold, separate multiply and add) must be untouched.
//! Shapes are sampled adversarially around the register-tile (4x16),
//! panel (KC=256), and block (MC=128) boundaries.

use mb_check::gen;
use mb_check::prop_assert_eq;
use mb_common::Rng;
use mb_tensor::kernels::matmul_reference;
use mb_tensor::Tensor;

/// Dims that straddle every dispatch/blocking boundary: the tiny
/// fallback path, partial register tiles, exact tiles, and a final
/// value past the KC panel width.
const EDGE_DIMS: &[usize] = &[1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129, 257];

fn dim(seed: u64, which: u64) -> usize {
    let mut rng = Rng::seed_from_u64(seed ^ (which.wrapping_mul(0x9e3779b97f4a7c15)));
    EDGE_DIMS[rng.below(EDGE_DIMS.len())]
}

/// Fill with magnitudes spanning ~30 orders plus exact zeros and
/// negatives, so any reordering of an accumulation chain would show up
/// as a differing bit pattern.
fn adversarial(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            let mag = rng.below(31) as i32 - 15;
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            match rng.below(8) {
                0 => 0.0,
                _ => sign * rng.f64() * 10f64.powi(mag),
            }
        })
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

mb_check::check! {
    #![config(cases = 48)]

    fn blocked_matmul_is_bit_identical_to_reference(seed in gen::u64_any()) {
        let (m, k, n) = (dim(seed, 1), dim(seed, 2), dim(seed, 3));
        let a = adversarial(m, k, seed ^ 1);
        let b = adversarial(k, n, seed ^ 2);
        let want: Vec<u64> = matmul_reference(&a, &b, false)
            .data().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = a.matmul(&b).data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&want, &got, "m={} k={} n={}", m, k, n);
    }

    fn blocked_matmul_t_is_bit_identical_to_reference(seed in gen::u64_any()) {
        let (m, k, n) = (dim(seed, 4), dim(seed, 5), dim(seed, 6));
        let a = adversarial(m, k, seed ^ 3);
        let b = adversarial(n, k, seed ^ 4); // transposed operand: n x k
        let want: Vec<u64> = matmul_reference(&a, &b, true)
            .data().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = a.matmul_t(&b).data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&want, &got, "m={} k={} n={}", m, k, n);
    }

    fn special_values_propagate_identically(seed in gen::u64_any()) {
        // Infinities and NaN payloads must flow through the blocked
        // kernel exactly as through the reference: 0 * inf = NaN is the
        // reason the kernels never skip zero terms.
        let (m, k, n) = (dim(seed, 7).max(4), dim(seed, 8).max(16), dim(seed, 9).max(16));
        let mut a = adversarial(m, k, seed ^ 5);
        let mut b = adversarial(k, n, seed ^ 6);
        let mut rng = Rng::seed_from_u64(seed ^ 7);
        for _ in 0..4 {
            let ai = rng.below(m * k);
            let bi = rng.below(k * n);
            if let Some(v) = a.data_mut().get_mut(ai) {
                *v = f64::INFINITY;
            }
            if let Some(v) = b.data_mut().get_mut(bi) {
                *v = 0.0;
            }
        }
        let want: Vec<u64> = matmul_reference(&a, &b, false)
            .data().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = a.matmul(&b).data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&want, &got, "m={} k={} n={}", m, k, n);
    }
}
