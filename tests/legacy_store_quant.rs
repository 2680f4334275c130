//! The store persists int8 tables only: a manifest or shard whose
//! `quant` line names any other element type — such as the legacy
//! half-precision token earlier writers emitted — is rejected at open
//! with a typed `Error::Checkpoint`, never a panic and never a store.
//! Each fixture is a real int8 store re-framed with only the `quant`
//! token swapped, so every other check would pass: the token alone is
//! what must fail the open.

use mb_common::storage::{read_frame, verify_frames, write_frames};
use mb_common::Error;
use mb_store::shard::MAGIC;
use mb_store::{EntityStore, Shard, StoreBuilder, StoreConfig, StoreRecord, MANIFEST};
use mb_tensor::QuantMode;
use std::fs::File;
use std::path::{Path, PathBuf};

/// The `quant` token a pre-int8-only writer put in meta and manifests.
const LEGACY_TOKEN: &str = "f16";

/// A two-shard int8 store in a fresh scratch directory named by `tag`.
fn int8_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-legacy-quant-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig { shard_capacity: 4, dim: 3, quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(&dir, cfg).expect("scratch store");
    for i in 0..6 {
        let vector = (0..3).map(|j| ((i * 3 + j) as f64).sin()).collect();
        let record =
            StoreRecord { title: format!("entity {i}"), description: String::new(), vector };
        builder.push(record).expect("push");
    }
    builder.finish().expect("finish");
    dir
}

/// Rewrite the container at `path` with its first section's
/// `quant int8` line swapped for `quant <token>`: every section CRC is
/// recomputed, so the file is framed as validly as the original.
fn swap_quant_token(path: &Path, token: &str) {
    let what = path.to_string_lossy().into_owned();
    let mut file = File::open(path).expect("open container");
    let len = file.metadata().expect("container metadata").len();
    let frames = verify_frames(&mut file, len, MAGIC, &what).expect("original verifies");
    let mut sections: Vec<(String, Vec<u8>)> = frames
        .iter()
        .map(|f| (f.name.clone(), read_frame(&mut file, f, &what).expect("section")))
        .collect();
    let head = String::from_utf8(sections[0].1.clone()).expect("text section");
    assert!(head.contains("\nquant int8\n"), "{what}: no int8 quant line in {head:?}");
    sections[0].1 = head.replace("\nquant int8\n", &format!("\nquant {token}\n")).into_bytes();
    let bytes = write_frames(MAGIC, &sections).expect("re-frame");
    std::fs::write(path, bytes).expect("write re-framed container");
}

/// `got` is the typed rejection of `token`, not some other failure.
fn assert_unknown_quant<T: std::fmt::Debug>(got: mb_common::Result<T>, token: &str) {
    match got {
        Err(Error::Checkpoint(msg)) => {
            assert!(msg.contains(&format!("unknown quant mode {token:?}")), "{msg}")
        }
        other => panic!("expected a checkpoint error for quant {token:?}, got {other:?}"),
    }
}

#[test]
fn a_manifest_naming_a_legacy_element_type_is_a_typed_error() {
    let dir = int8_store("manifest");
    assert!(EntityStore::open(&dir).is_ok(), "the untouched store opens");
    swap_quant_token(&dir.join(MANIFEST), LEGACY_TOKEN);
    assert_unknown_quant(EntityStore::open(&dir), LEGACY_TOKEN);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_naming_a_legacy_element_type_is_a_typed_error() {
    let dir = int8_store("shard");
    let path = dir.join("shard-00001.mbs");
    assert!(Shard::open(&path).is_ok(), "the untouched shard opens");
    swap_quant_token(&path, LEGACY_TOKEN);
    assert_unknown_quant(Shard::open(&path), LEGACY_TOKEN);
    let _ = std::fs::remove_dir_all(&dir);
}
