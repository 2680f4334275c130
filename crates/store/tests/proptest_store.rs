//! Property suites for the sharded entity store (DESIGN.md §14):
//! shard and store round-trips are exact, any single bit-flip or
//! truncation of an on-disk file is rejected at open (all-or-nothing),
//! the store-assembled quantized index is bit-identical to the
//! in-memory quantizer, and IVF build/search is bit-identical across
//! `mb-par` worker counts.

use mb_check::gen;
use mb_check::{prop_assert, prop_assert_eq};
use mb_par::Threads;
use mb_store::{
    CandidateSource, EntityStore, IvfConfig, IvfIndex, Shard, StoreBuilder, StoreConfig,
    StoreRecord, MANIFEST,
};
use mb_tensor::QuantMode;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fresh scratch directory per call (same process-scoped hygiene as
/// the serve chaos tests).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mb-store-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Deterministic records with the given per-record vectors.
fn records_from(vectors: &[Vec<f64>]) -> Vec<StoreRecord> {
    vectors
        .iter()
        .enumerate()
        .map(|(i, v)| StoreRecord {
            title: format!("entity {i}"),
            description: format!("synthetic description of entity {i}, length varies {}", i * 7),
            vector: v.clone(),
        })
        .collect()
}

/// Build a small int8 store from streamed synthetic entities.
fn streamed_store(
    dir: &std::path::Path,
    entities: usize,
    seed: u64,
    shard_capacity: usize,
) -> (EntityStore, Vec<StoreRecord>) {
    let stream = mb_datagen::EntityStream::new(mb_datagen::StreamConfig {
        chunk: 97, // deliberately coprime with shard capacity
        ..mb_datagen::StreamConfig::tiny(entities, seed)
    })
    .expect("stream config");
    let dim = stream.config().dim;
    let cfg = StoreConfig { shard_capacity, dim, quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(dir, cfg).expect("builder");
    let mut kept = Vec::with_capacity(entities);
    for chunk in stream {
        for e in chunk {
            let rec = StoreRecord { title: e.title, description: e.description, vector: e.vector };
            builder.push(rec.clone()).expect("push");
            kept.push(rec);
        }
    }
    (builder.finish().expect("finish"), kept)
}

mb_check::check! {
    #![config(cases = 24)]

    fn shard_round_trips_exactly(
        n in gen::usize_in(1..40),
        dim in gen::usize_in(1..9),
        seed in gen::u64_any(),
    ) {
        let mut rng = mb_common::Rng::seed_from_u64(seed);
        let vectors: Vec<Vec<f64>> =
            (0..n).map(|_| (0..dim).map(|_| rng.gaussian()).collect()).collect();
        let records = records_from(&vectors);
        let dir = scratch("roundtrip");
        let path = dir.join("shard-00000.mbs");
        mb_store::shard::write_shard(&path, 0, 0, dim, QuantMode::Int8, &records).expect("write");
        let shard = Shard::open(&path).expect("open");
        prop_assert_eq!(shard.len(), n);
        prop_assert_eq!(shard.dim(), dim);
        // Text round-trips byte-exact; vectors round-trip through the
        // quantizer, so compare against an in-memory quantization of
        // the same tensor.
        let flat: Vec<f64> = vectors.iter().flatten().copied().collect();
        let tensor = mb_tensor::Tensor::from_vec(vec![n, dim], flat);
        let q = mb_tensor::quant::QuantI8::from_tensor(&tensor);
        let mut want = vec![0.0f64; dim];
        let mut got = vec![0.0f64; dim];
        for (i, rec) in records.iter().enumerate() {
            prop_assert_eq!(shard.title(i).expect("title"), rec.title.clone());
            prop_assert_eq!(shard.description(i).expect("desc"), rec.description.clone());
            for (j, w) in want.iter_mut().enumerate() { *w = q.get(i, j); }
            shard.dequant_row_into(i, &mut got);
            for j in 0..dim {
                prop_assert!(want[j].to_bits() == got[j].to_bits(), "row {i} col {j}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn any_single_bit_flip_is_rejected(
        byte_pick in gen::usize_in(0..100_000),
        bit in gen::usize_in(0..8),
    ) {
        let vectors: Vec<Vec<f64>> =
            (0..12).map(|i| (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect()).collect();
        let dir = scratch("bitflip");
        let path = dir.join("shard-00000.mbs");
        mb_store::shard::write_shard(&path, 0, 0, 4, QuantMode::Int8, &records_from(&vectors))
            .expect("write");
        let mut bytes = std::fs::read(&path).expect("read shard bytes");
        let idx = byte_pick % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let opened = Shard::open(&path);
        prop_assert!(opened.is_err(), "flip at byte {idx} bit {bit} was not rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn any_truncation_is_rejected(cut in gen::usize_in(0..100_000)) {
        let vectors: Vec<Vec<f64>> =
            (0..9).map(|i| (0..3).map(|j| ((i * 3 + j) as f64).cos()).collect()).collect();
        let dir = scratch("trunc");
        let path = dir.join("shard-00000.mbs");
        mb_store::shard::write_shard(&path, 0, 0, 3, QuantMode::Int8, &records_from(&vectors))
            .expect("write");
        let bytes = std::fs::read(&path).expect("read shard bytes");
        let keep = cut % bytes.len(); // strict prefix
        std::fs::write(&path, &bytes[..keep]).expect("write truncated");
        prop_assert!(Shard::open(&path).is_err(), "prefix of {keep}/{} parsed", bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ivf_fused_batch_is_bit_identical_to_serial(
        seed in gen::u64_any(),
        nprobe_pick in gen::usize_in(0..3),
        batch in gen::usize_in(1..65),
    ) {
        // DESIGN.md §16: a list-grouped batch must be byte-for-byte
        // identical to per-query probing (the one-row batch: other
        // list groupings, other member lists) — same ids, same
        // `to_bits` scores — at every nprobe and worker count.
        let dir = scratch("ivf-fused");
        let (store, _) = streamed_store(&dir, 300, seed, 64);
        let dim = store.dim();
        let store = Arc::new(store);
        let cfg = IvfConfig { nlist: 12, nprobe: 4, train_cap: 256, rounds: 4, seed: 7 };
        let mut ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(2)).expect("build");
        ivf.set_nprobe([1, 4, 16][nprobe_pick]);
        let mut rng = mb_common::Rng::seed_from_u64(seed ^ 0x5EED);
        let mut qdata = Vec::with_capacity(batch * dim);
        for qi in 0..batch {
            // Half the queries sit near real entities (the serving
            // distribution, rich in near-ties), half are random.
            if qi % 2 == 0 {
                let mut q = vec![0.0f64; dim];
                store.dequant_row_into(rng.below(store.len()), &mut q);
                for x in q.iter_mut() { *x += 0.05 * rng.gaussian(); }
                qdata.extend_from_slice(&q);
            } else {
                qdata.extend((0..dim).map(|_| rng.gaussian()));
            }
        }
        let queries = mb_tensor::Tensor::from_vec(vec![batch, dim], qdata);
        let serial: Vec<Vec<(u32, u64)>> = (0..batch)
            .map(|qi| {
                ivf.top_k(queries.row(qi), 16)
                    .into_iter()
                    .map(|(id, s)| (id.0, s.to_bits()))
                    .collect()
            })
            .collect();
        for t in 1..4 {
            let fused = ivf.top_k_batch(&queries, 16, Threads::new(t)).expect("fused");
            let got: Vec<Vec<(u32, u64)>> = fused
                .into_iter()
                .map(|r| r.into_iter().map(|(id, s)| (id.0, s.to_bits())).collect())
                .collect();
            prop_assert_eq!(
                &got, &serial,
                "nprobe={} batch={} threads={}", ivf.nprobe(), batch, t
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ivf_probing_every_list_scores_like_the_flat_scan(
        seed in gen::u64_any(),
        batch in gen::usize_in(1..20),
    ) {
        // With `nprobe == nlist` and `k == n` the IVF returns every
        // row, scored out of its `PackedLists` copies; the flat scan of
        // `store.quantized_index()` scores the same rows out of the
        // concatenated shard tables — an independent data path. Same
        // (id, score bits) multiset, or one of the two gathers is
        // wrong. (Order may differ on exact ties: the IVF breaks them
        // by probe-ordered position, the flat scan by row.)
        let dir = scratch("ivf-flat");
        let (store, _) = streamed_store(&dir, 300, seed, 64);
        let (n, dim) = (store.len(), store.dim());
        let store = Arc::new(store);
        let cfg = IvfConfig { nlist: 12, nprobe: 12, train_cap: 256, rounds: 4, seed: 7 };
        let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(2)).expect("build");
        prop_assert_eq!(ivf.nprobe(), ivf.nlist());
        let flat = store.quantized_index().expect("flat index");
        let mut rng = mb_common::Rng::seed_from_u64(seed ^ 0xF1A7);
        let qdata: Vec<f64> = (0..batch * dim).map(|_| rng.gaussian()).collect();
        let queries = mb_tensor::Tensor::from_vec(vec![batch, dim], qdata);
        let by_id = |rankings: Vec<Vec<(mb_kb::EntityId, f64)>>| -> Vec<Vec<(u32, u64)>> {
            rankings
                .into_iter()
                .map(|r| {
                    let mut r: Vec<(u32, u64)> =
                        r.into_iter().map(|(id, s)| (id.0, s.to_bits())).collect();
                    r.sort_unstable();
                    r
                })
                .collect()
        };
        let got = by_id(ivf.top_k_batch(&queries, n, Threads::single()).expect("ivf"));
        let want = by_id(flat.top_k_batch(&queries, n, Threads::single()).expect("flat"));
        prop_assert!(want.iter().all(|r| r.len() == n));
        prop_assert_eq!(&got, &want, "batch={}", batch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ivf_build_and_search_are_worker_count_invariant(
        seed in gen::u64_any(),
        workers in gen::usize_in(2..9),
    ) {
        let dir = scratch("ivf-det");
        let (store, _) = streamed_store(&dir, 300, seed, 64);
        let store = Arc::new(store);
        let cfg = IvfConfig { nlist: 12, nprobe: 4, train_cap: 256, rounds: 4, seed: 7 };
        let a = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(1)).expect("build@1");
        let b = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(workers))
            .expect("build@n");
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        let mut rng = mb_common::Rng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..5 {
            let q: Vec<f64> = (0..store.dim()).map(|_| rng.gaussian()).collect();
            let ra = a.top_k(&q, 16);
            let rb = b.top_k(&q, 16);
            prop_assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(rb.iter()) {
                prop_assert!(x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn store_round_trips_across_shards_and_streams_bounded() {
    let dir = scratch("multi");
    let (store, kept) = streamed_store(&dir, 150, 11, 32);
    // 150 entities at capacity 32 → shards of 32,32,32,32,22.
    assert_eq!(store.len(), 150);
    assert_eq!(store.shards().len(), 5);
    assert_eq!(store.shards()[4].len(), 22);
    for (i, rec) in kept.iter().enumerate() {
        let id = mb_kb::EntityId(u32::try_from(i).expect("small id"));
        assert_eq!(store.title(id).expect("title"), rec.title);
        assert_eq!(store.description(id).expect("desc"), rec.description);
    }
    assert!(store.title(mb_kb::EntityId(150)).is_err());
    // Reopen: same contents (open is pure).
    let again = EntityStore::open(&dir).expect("reopen");
    assert_eq!(again.len(), store.len());
    assert_eq!(again.title(mb_kb::EntityId(149)).expect("title"), kept[149].title);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_quantized_index_is_bit_identical_to_in_memory_quantizer() {
    // The PR 6 residual, pinned: loading tables from shard sections
    // must produce exactly what quantizing the full embedding matrix
    // in memory produces — same bits, same scores.
    let dir = scratch("pin");
    let (store, kept) = streamed_store(&dir, 120, 23, 50);
    let from_store = store.quantized_index().expect("store index");
    let n = kept.len();
    let dim = store.dim();
    let flat: Vec<f64> = kept.iter().flat_map(|r| r.vector.iter().copied()).collect();
    let tensor = mb_tensor::Tensor::from_vec(vec![n, dim], flat);
    let ids: Vec<mb_kb::EntityId> =
        (0..u32::try_from(n).expect("small")).map(mb_kb::EntityId).collect();
    let dense = mb_encoders::retrieval::DenseIndex::try_from_vectors(tensor, ids).expect("dense");
    let in_memory = mb_encoders::retrieval::QuantizedIndex::from_dense(&dense).expect("narrow");
    let mut rng = mb_common::Rng::seed_from_u64(99);
    for _ in 0..10 {
        let q: Vec<f64> = (0..dim).map(|_| rng.gaussian()).collect();
        let a = from_store.top_k(&q, n);
        let b = in_memory.top_k(&q, n);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn int8_stores_wider_than_the_exact_scan_are_rejected() {
    // The int8 scan sums integers in `f32`, exactly up to 2^24 / 2^14 =
    // 1,024 columns — the literal, so a silent change to the constant
    // fails. The widest store is created, finished and reopened; one
    // column more is a typed error at create and at open, never a
    // rounded score at query time.
    let widest = 1024;
    assert_eq!(mb_tensor::kernels::I8_EXACT_COLS, widest);
    let dir = scratch("widest");
    let cfg = StoreConfig { shard_capacity: 4, dim: widest, quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(&dir, cfg).expect("the widest int8 store");
    let vector = (0..widest).map(|j| if j % 2 == 0 { -1.0 } else { 0.5 }).collect();
    let record = StoreRecord { title: "widest".into(), description: String::new(), vector };
    builder.push(record).expect("push");
    drop(builder.finish().expect("finish opens the widest store"));
    assert_eq!(EntityStore::open(&dir).expect("reopen the widest store").dim(), widest);
    let _ = std::fs::remove_dir_all(&dir);
    let wide = widest + 1;
    let dir = scratch("wide");
    let cfg = StoreConfig { shard_capacity: 4, dim: wide, quant: QuantMode::Int8 };
    let err = StoreBuilder::create(&dir, cfg).err();
    assert!(matches!(err, Some(mb_common::Error::InvalidConfig(_))), "got {err:?}");
    // A CRC-valid manifest declaring the width fails before any shard.
    let payload = format!("entities 1\ndim {wide}\nquant int8\ncapacity 4\nshards 0\n");
    let bytes = mb_common::storage::write_frames(mb_store::shard::MAGIC, &[("manifest", payload)])
        .expect("manifest frames");
    std::fs::write(dir.join(MANIFEST), bytes).expect("write manifest");
    match EntityStore::open(&dir) {
        Err(mb_common::Error::Checkpoint(msg)) => {
            assert!(msg.contains("exact scan width"), "{msg}")
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_corruption_and_size_drift_are_rejected() {
    let dir = scratch("manifest");
    let (store, _) = streamed_store(&dir, 40, 5, 16);
    drop(store);
    // Flip one bit in the manifest body.
    let mpath = dir.join(MANIFEST);
    let mut bytes = std::fs::read(&mpath).expect("manifest bytes");
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x10;
    std::fs::write(&mpath, &bytes).expect("write corrupted");
    assert!(EntityStore::open(&dir).is_err());
    bytes[idx] ^= 0x10;
    std::fs::write(&mpath, &bytes).expect("restore");
    assert!(EntityStore::open(&dir).is_ok());
    // Append a byte to one shard: the manifest byte-length check fires.
    let spath = dir.join("shard-00001.mbs");
    let mut sbytes = std::fs::read(&spath).expect("shard bytes");
    sbytes.push(0);
    std::fs::write(&spath, &sbytes).expect("grow shard");
    assert!(EntityStore::open(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ivf_save_load_round_trips_and_rebuild_is_byte_identical() {
    let dir = scratch("ivf-io");
    let (store, _) = streamed_store(&dir, 260, 31, 128);
    let store = Arc::new(store);
    let cfg = IvfConfig { nlist: 10, nprobe: 3, train_cap: 260, rounds: 4, seed: 3 };
    let built = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(2)).expect("build");
    let rebuilt = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(5)).expect("rebuild");
    assert_eq!(built.to_bytes(), rebuilt.to_bytes(), "rebuild is byte-identical");
    let path = dir.join(mb_store::IVF_FILE);
    built.save(&path).expect("save");
    let loaded = IvfIndex::load(&path, Arc::clone(&store)).expect("load");
    assert_eq!(loaded.to_bytes(), built.to_bytes());
    let mut rng = mb_common::Rng::seed_from_u64(17);
    let q: Vec<f64> = (0..store.dim()).map(|_| rng.gaussian()).collect();
    let a = built.top_k(&q, 20);
    let b = loaded.top_k(&q, 20);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1.to_bits(), y.1.to_bits());
    }
    // A flipped bit in the index file is rejected at load.
    let mut bytes = std::fs::read(&path).expect("index bytes");
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x02;
    std::fs::write(&path, &bytes).expect("write corrupted");
    assert!(IvfIndex::load(&path, store).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ivf_recall_at_64_meets_the_contract_on_the_hermetic_fixture() {
    // The acceptance fixture: clustered streamed world, int8 store,
    // recall@64 ≥ 0.95 against exact brute force over the same
    // quantized tables.
    let dir = scratch("recall");
    let (store, _) = streamed_store(&dir, 3000, 42, 1024);
    let store = Arc::new(store);
    let exact = store.quantized_index().expect("exact index");
    let cfg = IvfConfig { nlist: 48, nprobe: 16, train_cap: 3000, rounds: 8, seed: 0 };
    let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::new(2)).expect("build");
    let mut rng = mb_common::Rng::seed_from_u64(7);
    let queries = 40;
    let k = 64;
    let mut hit = 0usize;
    let mut total = 0usize;
    for _ in 0..queries {
        // Queries near real entities (the serving distribution).
        let row = rng.below(store.len());
        let mut q = vec![0.0f64; store.dim()];
        store.dequant_row_into(row, &mut q);
        for x in q.iter_mut() {
            *x += 0.05 * rng.gaussian();
        }
        let truth: std::collections::BTreeSet<u32> =
            exact.top_k(&q, k).into_iter().map(|(id, _)| id.0).collect();
        let got = ivf.top_k(&q, k);
        total += truth.len();
        hit += got.iter().filter(|(id, _)| truth.contains(&id.0)).count();
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.95, "recall@64 = {recall:.4} < 0.95");
    let _ = std::fs::remove_dir_all(&dir);
}
