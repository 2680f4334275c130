//! Property-based tests of the `mb-params v2` checkpoint format:
//! random checkpoints (params + optimizer state + RNG streams +
//! diagnostic vectors + metadata) round-trip exactly, and any single
//! bit-flip or truncation of the encoded bytes is *detected* — a
//! corrupted checkpoint either loads equal to the original or fails,
//! never silently loads different state.

use mb_check::gen::{self, CharsetChar, StringGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::optim::OptimState;
use mb_tensor::{Params, Tensor};

fn key_name() -> StringGen<CharsetChar> {
    gen::charset_string("abcdefghijklmnopqrstuvwxyz0123456789_.-/", 1..=10)
}

fn params_from(specs: Vec<(String, usize, Vec<f64>)>) -> Params {
    let mut params = Params::new();
    let mut used = std::collections::HashSet::new();
    for (name, cols, data) in specs {
        if !used.insert(name.clone()) {
            continue;
        }
        let mut values = data;
        values.resize(cols.max(1), 0.0);
        params.add(&name, Tensor::from_vec(vec![1, values.len()], values));
    }
    params
}

/// A checkpoint exercising every section kind, built deterministically
/// from generated inputs.
fn checkpoint_from(
    specs: Vec<(String, usize, Vec<f64>)>,
    rng_state: [u64; 4],
    losses: Vec<f64>,
    tag: String,
    adam_t: u64,
) -> Checkpoint {
    let mut ck = Checkpoint::new();
    let params = params_from(specs);
    let moments = if adam_t > 0 {
        let ms: Vec<Tensor> =
            params.iter().map(|(_, t)| Tensor::zeros(t.shape().to_vec())).collect();
        Some((ms.clone(), ms))
    } else {
        None
    };
    ck.optim.insert(
        "model".into(),
        OptimState { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: adam_t, moments },
    );
    ck.params.insert("model".into(), params);
    ck.rng.insert("model".into(), rng_state);
    ck.vectors.insert("losses".into(), losses);
    ck.meta.insert("tag".into(), tag);
    ck.meta.insert("stage".into(), "2".into());
    ck
}

mb_check::check! {
    #![config(cases = 32)]

    fn checkpoints_round_trip_exactly(
        specs in gen::vec_of(
            (key_name(), gen::usize_in(1..6), gen::vec_of(gen::f64_normal_or_zero(), 1..12)),
            1..4,
        ),
        s0 in gen::u64_any(),
        s1 in gen::u64_any(),
        losses in gen::vec_of(gen::f64_normal_or_zero(), 0..10),
        adam_t in gen::u64_in(0..50),
    ) {
        let ck = checkpoint_from(specs, [s0, s1, s0 ^ s1, !s0], losses, "t".into(), adam_t);
        let bytes = ck.to_bytes().expect("finite checkpoint serializes");
        let parsed = Checkpoint::from_bytes(&bytes).expect("round trip parse");
        prop_assert_eq!(parsed, ck);
    }

    fn any_single_bit_flip_is_detected(
        byte_pick in gen::usize_in(0..10_000),
        bit in gen::usize_in(0..8),
        s0 in gen::u64_any(),
    ) {
        let ck = checkpoint_from(
            vec![("w".into(), 3, vec![1.5, -2.25, 0.5])],
            [s0, 1, 2, 3],
            vec![0.25, 0.125],
            "flip".into(),
            7,
        );
        let mut bytes = ck.to_bytes().expect("serialize");
        let idx = byte_pick % bytes.len();
        bytes[idx] ^= 1 << bit;
        match Checkpoint::from_bytes(&bytes) {
            // A flip in ignorable space (none exists in v2) would be
            // acceptable only if the result is exactly the original.
            Ok(loaded) => prop_assert_eq!(loaded, ck),
            Err(_) => prop_assert!(true),
        }
    }

    fn any_truncation_is_detected(
        cut in gen::usize_in(0..10_000),
        s0 in gen::u64_any(),
    ) {
        let ck = checkpoint_from(
            vec![("w".into(), 2, vec![3.0, -4.0])],
            [s0, 5, 6, 7],
            vec![1.0],
            "cut".into(),
            3,
        );
        let bytes = ck.to_bytes().expect("serialize");
        let keep = cut % bytes.len(); // strict prefix
        let loaded = Checkpoint::from_bytes(&bytes[..keep]);
        prop_assert!(loaded.is_err(), "prefix of {keep}/{} bytes parsed", bytes.len());
    }

    fn parser_never_panics_on_garbage(garbage in gen::vec_of(gen::usize_in(0..256), 0..300)) {
        let bytes: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let _ = Checkpoint::from_bytes(&bytes);
    }
}
