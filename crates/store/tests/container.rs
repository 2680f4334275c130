//! The one container behind checkpoint / shard / manifest / IVF
//! (DESIGN.md §8 "Container"): the bytes each writer produces are
//! pinned, and no header number — however large — gets past the shared
//! walker as anything but a typed rejection.

use mb_check::gen;
use mb_common::storage::{crc32, verify_frames};
use mb_common::{Error, Rng};
use mb_par::Threads;
use mb_store::shard::write_shard;
use mb_store::{
    EntityStore, IvfConfig, IvfIndex, Shard, StoreBuilder, StoreConfig, StoreRecord, IVF_FILE,
    MANIFEST,
};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use mb_tensor::{Params, QuantMode, Tensor};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mb-container-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A checkpoint exercising every section kind.
fn checkpoint(seed: u64) -> Checkpoint {
    let mut rng = Rng::seed_from_u64(seed);
    let mut bi = Params::new();
    bi.add("emb", Tensor::randn(vec![4, 3], 0.0, 1.0, &mut rng));
    bi.add("w", Tensor::randn(vec![3, 2], 0.0, 0.5, &mut rng));
    let mut cross = Params::new();
    cross.add("w", Tensor::randn(vec![2, 2], 0.0, 0.5, &mut rng));
    let mut opt = Adam::new(0.01);
    let g = GradVec::from_tensors(vec![
        Tensor::randn(vec![4, 3], 0.0, 0.1, &mut rng),
        Tensor::randn(vec![3, 2], 0.0, 0.1, &mut rng),
    ]);
    opt.step(&mut bi, &g);
    let mut ck = Checkpoint::new();
    ck.optim.insert("bi".into(), opt.state());
    ck.params.insert("bi".into(), bi);
    ck.params.insert("cross".into(), cross);
    ck.rng.insert("meta".into(), rng.state());
    ck.vectors.insert("step_losses".into(), vec![0.5, 0.25, 1.0 / 3.0]);
    ck.vectors.insert("empty".into(), Vec::new());
    ck.meta.insert("stage".into(), "2".into());
    ck.meta.insert("note".into(), "has spaces in value".into());
    ck
}

fn records(n: usize, dim: usize, seed: u64) -> Vec<StoreRecord> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| StoreRecord {
            title: format!("entity {i}"),
            description: format!("synthetic description of entity {i}, length varies {}", i * 7),
            vector: (0..dim).map(|_| rng.gaussian()).collect(),
        })
        .collect()
}

/// A three-shard int8 store plus its IVF index, saved beside it.
fn store_with_ivf(dir: &Path, seed: u64) -> (Arc<EntityStore>, IvfIndex) {
    let cfg = StoreConfig { shard_capacity: 16, dim: 4, quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(dir, cfg).expect("builder");
    for rec in records(40, 4, seed) {
        builder.push(rec).expect("push");
    }
    let store = Arc::new(builder.finish().expect("finish"));
    let cfg = IvfConfig { nlist: 5, nprobe: 2, train_cap: 40, rounds: 3, seed: 3 };
    let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(2)).expect("build");
    ivf.save(&dir.join(IVF_FILE)).expect("save");
    (store, ivf)
}

#[test]
fn container_bytes_are_pinned() {
    // Digests captured at the commit before the four writers moved
    // onto `mb_common::storage::write_frames` (the manifest and IVF
    // ones re-captured, with unchanged writers, when the store fixture
    // moved to int8; the checkpoint one when the sample dropped its
    // SGD section, Adam being the only optimizer — the writer that
    // still knew SGD gives the same digest for the Adam-only sample); a
    // change here is a format change and breaks every file on disk.
    const CHECKPOINT: u32 = 0x0d1b_853e;
    const SHARD: u32 = 0x7dad_f68d;
    const MANIFEST_FILE: u32 = 0xf395_c0ff;
    const IVF: u32 = 0xab6b_8795;

    let dir = scratch("pinned");
    let shard_path = dir.join("shard-00000.mbs");
    write_shard(&shard_path, 0, 0, 5, QuantMode::Int8, &records(12, 5, 17)).expect("write");
    let store_dir = dir.join("store");
    let (_store, ivf) = store_with_ivf(&store_dir, 23);
    let got = [
        crc32(&checkpoint(7).to_bytes().expect("finite")),
        crc32(&std::fs::read(&shard_path).expect("shard bytes")),
        crc32(&std::fs::read(store_dir.join(MANIFEST)).expect("manifest bytes")),
        crc32(&ivf.to_bytes().expect("ivf bytes")),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got.map(|d| format!("{d:#010x}")),
        [CHECKPOINT, SHARD, MANIFEST_FILE, IVF].map(|d| format!("{d:#010x}")),
        "[checkpoint, shard, manifest, ivf]"
    );
}

const STORE_MAGIC: &str = "mb-store v1";
const PARAMS_MAGIC: &str = "mb-params v2";

/// Where each decimal token of the magic line and of every section
/// header sits in a valid container, and its value.
fn header_numbers(bytes: &[u8], magic: &str) -> Vec<(Range<usize>, u64)> {
    let frames = verify_frames(&mut &bytes[..], bytes.len() as u64, magic, "fixture")
        .expect("fixture verifies");
    let newline = |upto: usize| bytes[..upto].iter().rposition(|&b| b == b'\n');
    // Header lines as byte ranges: the magic line, then one per frame.
    let mut lines = Vec::new();
    lines.push(0..bytes.iter().position(|&b| b == b'\n').expect("magic line"));
    for frame in &frames {
        let end = usize::try_from(frame.pos).expect("small") - 1;
        lines.push(newline(end).expect("a line precedes every header") + 1..end);
    }
    let mut numbers = Vec::new();
    for line in lines {
        let mut at = line.start;
        for token in std::str::from_utf8(&bytes[line]).expect("header is text").split(' ') {
            if let Ok(value) = token.parse::<u64>() {
                numbers.push((at..at + token.len(), value));
            }
            at += token.len() + 1;
        }
    }
    numbers
}

/// What single-bit flips cannot reach: no flip turns `41` into a
/// 20-digit number.
fn replacements(value: u64) -> [String; 9] {
    [
        "0".into(),
        "1".into(),
        value.wrapping_sub(1).to_string(),
        value.wrapping_add(1).to_string(),
        "4294967296".into(),
        "9223372036854775808".into(),
        "18446744073709551615".into(),
        "9".repeat(20),
        String::new(),
    ]
}

/// Replace every header number of `bytes` in turn with every
/// replacement; `load` must answer `Error::Checkpoint` unless the bytes
/// did not change — never a panic, another error kind, or a success.
fn check_header_numbers(
    kind: &str,
    bytes: &[u8],
    magic: &str,
    load: &dyn Fn(&[u8]) -> mb_common::Result<()>,
) -> Result<(), String> {
    let numbers = header_numbers(bytes, magic);
    if numbers.len() < 2 {
        return Err(format!("{kind}: only {} header numbers found", numbers.len()));
    }
    for (range, value) in numbers {
        for rep in replacements(value) {
            let mut mutated = bytes[..range.start].to_vec();
            mutated.extend_from_slice(rep.as_bytes());
            mutated.extend_from_slice(&bytes[range.end..]);
            match load(&mutated) {
                Err(Error::Checkpoint(_)) => {}
                Ok(()) if mutated == bytes => {}
                other => {
                    return Err(format!("{kind}: {value} at {range:?} -> {rep:?} gave {other:?}"))
                }
            }
        }
    }
    load(bytes).map_err(|e| format!("{kind}: the unmutated file no longer loads: {e}"))
}

/// Run `check_header_numbers` over all four file kinds of one seeded
/// fixture.
fn check_all_kinds(seed: u64) -> Result<(), String> {
    let ck = checkpoint(seed);
    check_header_numbers("checkpoint", &ck.to_bytes().expect("finite"), PARAMS_MAGIC, &|b| {
        Checkpoint::from_bytes(b).map(|loaded| assert_eq!(loaded, ck))
    })?;

    let dir = scratch("headers");
    let through = |path: PathBuf, open: &dyn Fn() -> mb_common::Result<()>| {
        let original = std::fs::read(&path).expect("fixture bytes");
        let kind = path.file_name().expect("file").to_string_lossy().into_owned();
        check_header_numbers(&kind, &original, STORE_MAGIC, &|b| {
            std::fs::write(&path, b).expect("write mutated");
            open()
        })
    };
    let shard_path = dir.join("lone-shard.mbs");
    write_shard(&shard_path, 0, 0, 5, QuantMode::Int8, &records(12, 5, seed)).expect("write");
    through(shard_path.clone(), &|| Shard::open(&shard_path).map(drop))?;
    let store_dir = dir.join("store");
    let (store, _) = store_with_ivf(&store_dir, seed);
    through(store_dir.join(MANIFEST), &|| EntityStore::open(&store_dir).map(drop))?;
    let ivf_path = store_dir.join(IVF_FILE);
    through(ivf_path.clone(), &|| IvfIndex::load(&ivf_path, Arc::clone(&store)).map(drop))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

mb_check::check! {
    #![config(cases = 4)]

    fn no_header_number_gets_past_the_walker(seed in gen::u64_any()) {
        check_all_kinds(seed)?;
    }
}

#[test]
fn oversized_header_numbers_are_rejected_at_every_entry() {
    // The three reproducers (a section length and a section count of
    // `u64::MAX`; the count used to reach `Vec::with_capacity`, the
    // length an unchecked `pos + len + 1`) at each of the four entries.
    // The fixed seed keeps them in the suite whatever the property draws.
    check_all_kinds(0).unwrap();
    let max = u64::MAX.to_string();
    for doc in [
        format!("mb-params v2 1\nsection meta {max} 00000000\n\n"),
        format!("mb-params v2 {max}\nsection meta 0 00000000\n\n"),
    ] {
        let err = Checkpoint::from_bytes(doc.as_bytes()).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)), "{doc:?}: {err:?}");
    }
    let dir = scratch("oversized");
    std::fs::write(dir.join(MANIFEST), format!("mb-store v1 {max}\n")).expect("write");
    std::fs::write(
        dir.join("shard-00000.mbs"),
        format!("mb-store v1 4\nsection meta {max} 00000000\n\n"),
    )
    .expect("write");
    let err = EntityStore::open(&dir).unwrap_err();
    assert!(matches!(err, Error::Checkpoint(_)), "{err:?}");
    let err = Shard::open(&dir.join("shard-00000.mbs")).unwrap_err();
    assert!(matches!(err, Error::Checkpoint(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
