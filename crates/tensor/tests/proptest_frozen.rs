//! Property test of the frozen parameter snapshot (DESIGN.md §12): ids
//! minted by the source `Params` resolve to bit-identical tensors, and
//! handles share one allocation. (The forward ops need no tape-vs-frozen
//! suite: the tape ops *call* `mb_tensor::frozen`. What is still two
//! things — each encoder's training graph beside its tape-free op
//! sequence — is pinned in `mb-encoders` and `tests/one_forward.rs`.)

use mb_check::gen;
use mb_check::prop_assert_eq;
use mb_common::Rng;
use mb_tensor::frozen::FrozenParams;
use mb_tensor::{Params, Tensor};

/// Magnitudes spanning ~30 orders plus exact zeros and negatives, so
/// any reordering of an accumulation chain flips an output bit.
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

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

mb_check::check! {
    #![config(cases = 48)]

    fn frozen_params_resolve_identically_to_their_source(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut params = Params::default();
        let ids: Vec<_> = (0..1 + rng.below(6))
            .map(|i| {
                let t = adversarial(1 + rng.below(8), 1 + rng.below(8), seed ^ (7 + i as u64));
                params.add(format!("p{i}"), t)
            })
            .collect();
        let snap = FrozenParams::freeze(&params);
        prop_assert_eq!(snap.len(), ids.len());
        prop_assert_eq!(snap.numel(), params.numel());
        for id in ids {
            prop_assert_eq!(bits(snap.get(id)), bits(params.get(id)));
        }
        // Handles share one allocation — the whole point of freezing.
        let handle = snap.clone();
        assert!(handle.shares_storage(&snap));
    }
}
