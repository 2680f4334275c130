//! Parameter initialisation schemes.

use crate::tensor::Tensor;
use mb_common::Rng;

/// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]`
/// weight matrix: `U(−√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.range_f64(-limit, limit)).collect();
    Tensor::from_vec(vec![fan_in, fan_out], data)
}

/// Embedding-table initialisation: `N(0, 1/√dim)` per element, giving
/// token vectors of roughly unit expected norm.
pub fn embedding(vocab: usize, dim: usize, rng: &mut Rng) -> Tensor {
    let std = 1.0 / (dim as f64).sqrt();
    Tensor::randn(vec![vocab, dim], 0.0, std, rng)
}

/// Zero bias vector.
pub fn zeros_bias(dim: usize) -> Tensor {
    Tensor::zeros(vec![dim])
}

/// Near-identity initialisation: `scale·I` plus small uniform noise.
/// Used to start encoder heads as (approximate) identity maps, so an
/// untrained encoder over a shared embedding table already behaves as
/// a bag-of-words matcher — the substrate's stand-in for a pretrained
/// language model's transferable representations.
///
/// # Panics
/// Panics unless the matrix is square.
pub fn near_identity(dim: usize, scale: f64, noise: f64, rng: &mut Rng) -> Tensor {
    let mut t = Tensor::zeros(vec![dim, dim]);
    for i in 0..dim {
        for j in 0..dim {
            let base = if i == j { scale } else { 0.0 };
            *t.at_mut(i, j) = base + rng.range_f64(-noise, noise);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_and_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let w = xavier_uniform(30, 20, &mut rng);
        assert_eq!(w.shape(), &[30, 20]);
        let limit = (6.0 / 50.0_f64).sqrt();
        assert!(w.data().iter().all(|x| x.abs() <= limit));
        // Non-degenerate.
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn embedding_rows_near_unit_norm() {
        let mut rng = Rng::seed_from_u64(3);
        let e = embedding(200, 64, &mut rng);
        let mean_norm: f64 =
            (0..200).map(|i| e.row(i).iter().map(|x| x * x).sum::<f64>().sqrt()).sum::<f64>()
                / 200.0;
        assert!((mean_norm - 1.0).abs() < 0.1, "mean row norm {mean_norm}");
    }

    #[test]
    fn zeros_bias_is_zero() {
        let b = zeros_bias(7);
        assert_eq!(b.shape(), &[7]);
        assert!(b.data().iter().all(|&x| x == 0.0));
    }
}
