//! Property-based tests of parameter serialisation through
//! [`Checkpoint`]: parameters round-trip exactly through the v2 writer
//! and reader, and the legacy `mb-params v1` reader — which has no
//! writer left in the workspace — is driven by documents this file
//! formats itself.

use mb_check::gen::{self, CharsetChar, StringGen};
use mb_check::prop_assert_eq;
use mb_common::storage::MemStorage;
use mb_common::Error;
use mb_tensor::checkpoint::{Checkpoint, V1_PARAMS_KEY};
use mb_tensor::{Params, Tensor};
use std::path::Path;

fn param_name() -> StringGen<CharsetChar> {
    gen::charset_string("abcdefghijklmnopqrstuvwxyz0123456789_.", 1..=13)
}

/// An `mb-params v1` document, written independently of the crate:
/// `{:e}` prints the shortest digits that round-trip the `f64`.
fn v1_document(params: &Params) -> String {
    let mut doc = String::from("mb-params v1\n");
    for (name, tensor) in params.iter() {
        let dims: Vec<String> = tensor.shape().iter().map(ToString::to_string).collect();
        let values: Vec<String> = tensor.data().iter().map(|v| format!("{v:e}")).collect();
        doc += &format!("param {name} {} {}\n{}\n", dims.len(), dims.join(" "), values.join(" "));
    }
    doc
}

fn v2_round_trip(params: &Params) -> Params {
    let mut ck = Checkpoint::new();
    ck.params.insert("model".into(), params.clone());
    let bytes = ck.to_bytes().expect("finite params serialize");
    Checkpoint::from_bytes(&bytes).expect("round trip parse").params.remove("model").expect("key")
}

fn v1_read(doc: &str) -> Params {
    Checkpoint::from_bytes(doc.as_bytes())
        .expect("v1 parse")
        .params
        .remove(V1_PARAMS_KEY)
        .expect("key")
}

mb_check::check! {
    #![config(cases = 48)]

    fn arbitrary_params_round_trip_exactly(
        specs in gen::vec_of(
            (
                param_name(),
                gen::usize_in(1..5),
                gen::usize_in(1..5),
                gen::vec_of(gen::f64_normal_or_zero(), 1..25),
            ),
            1..6,
        )
    ) {
        let mut params = Params::new();
        let mut used = std::collections::HashSet::new();
        for (name, r, c, data) in specs {
            if !used.insert(name.clone()) {
                continue; // names must be unique
            }
            let numel = r * c;
            let mut values = data;
            values.resize(numel, 0.0);
            params.add(&name, Tensor::from_vec(vec![r, c], values));
        }
        prop_assert_eq!(v2_round_trip(&params), params.clone());
        prop_assert_eq!(v1_read(&v1_document(&params)), params);
    }

    fn parser_never_panics_on_garbage(garbage in gen::any_string(0..=300)) {
        // Must return Err or Ok, never panic — as a whole document and
        // as the body of a v1 document.
        let _ = Checkpoint::from_bytes(garbage.as_bytes());
        let _ = Checkpoint::from_bytes(format!("mb-params v1\n{garbage}").as_bytes());
    }

    fn parser_never_panics_on_mutated_valid_input(
        flip in gen::usize_in(0..200),
        replacement in gen::char_in('!', '~'),
    ) {
        let mut params = Params::new();
        params.add("w", Tensor::from_vec(vec![2, 2], vec![1.0, -2.5, 3.25, 0.0]));
        let mut chars: Vec<char> = v1_document(&params).chars().collect();
        let idx = flip % chars.len();
        chars[idx] = replacement;
        let mutated: String = chars.into_iter().collect();
        let _ = Checkpoint::from_bytes(mutated.as_bytes());
    }
}

#[test]
fn round_trip_preserves_extreme_values() {
    let mut p = Params::new();
    p.add("x", Tensor::vector(&[1e-308, -1e308, 0.0, f64::MIN_POSITIVE, 1.0 / 3.0]));
    p.add("scalar", Tensor::scalar(std::f64::consts::PI));
    assert_eq!(v2_round_trip(&p), p);
    assert_eq!(v1_read(&v1_document(&p)), p);
}

#[test]
fn rejects_non_finite_values_at_save_time() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut p = Params::new();
        p.add("ok", Tensor::vector(&[1.0]));
        p.add("poisoned", Tensor::vector(&[0.5, bad]));
        let mut ck = Checkpoint::new();
        ck.params.insert("model".into(), p);
        let err = ck.to_bytes().unwrap_err();
        assert!(matches!(err, Error::Diverged(_)), "expected Diverged for {bad}, got {err:?}");
        assert!(err.to_string().contains("poisoned"));
        let mut storage = MemStorage::new();
        assert!(ck.save(&mut storage, Path::new("ckpt.mbc")).is_err());
        assert!(storage.is_empty(), "nothing is written for a refused checkpoint");
    }
}
