//! Tier-1 slice of the retrieval contract (the property suites live in
//! `crates/encoders/tests/proptest_fused_batch.rs` and
//! `crates/store/tests/proptest_store.rs`): for each element type the
//! one scan behind `top_k_batch` equals the independent oracle —
//! reference fold over every row, full sort — bit for bit, across a
//! query-block boundary, an int8 run boundary and thread counts; and
//! an IVF probing every list scores every row like the flat scan.

#[path = "../crates/encoders/tests/support/mod.rs"]
mod support;

use mb_common::Rng;
use mb_encoders::retrieval::{CandidateSource, DenseIndex, QuantizedIndex};
use mb_kb::EntityId;
use mb_par::Threads;
use mb_store::{IvfConfig, IvfIndex, StoreBuilder, StoreConfig, StoreRecord};
use mb_tensor::quant::{QuantF16, QuantI8};
use mb_tensor::{QuantMode, Tensor};
use std::sync::Arc;
use support::{reference_top_k, Table};

/// 700 near-tie rows (past one 512-row int8 run), 19 queries (three
/// query blocks: 8 + 8 + 3).
const N: usize = 700;
const DIM: usize = 9;
const BATCH: usize = 19;
const K: usize = 10;

fn near_tie_vectors(seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let base: Vec<f64> = (0..DIM).map(|_| rng.f64() * 2.0 - 1.0).collect();
    let data = (0..N * DIM).map(|i| base[i % DIM] + (rng.f64() * 2.0 - 1.0) * 1e-3).collect();
    Tensor::from_vec(vec![N, DIM], data)
}

fn queries(seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor::from_vec(vec![BATCH, DIM], (0..BATCH * DIM).map(|_| rng.f64() * 2.0 - 1.0).collect())
}

fn bits(ranked: &[(EntityId, f64)]) -> Vec<(u32, u64)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

fn assert_matches_oracle(what: &str, index: &dyn CandidateSource, table: Table<'_>, qs: &Tensor) {
    let oracle: Vec<_> = (0..BATCH).map(|i| reference_top_k(table, qs.row(i), K)).collect();
    for threads in [1, 3] {
        let got = index.top_k_batch(qs, K, Threads::new(threads)).expect("well-shaped queries");
        let got: Vec<_> = got.iter().map(|r| bits(r)).collect();
        assert_eq!(got, oracle, "{what} at {threads} threads");
    }
    assert_eq!(bits(&index.top_k(qs.row(0), K)), oracle[0], "{what}: one-row batch");
}

#[test]
fn every_element_type_matches_the_oracle() {
    let vectors = near_tie_vectors(5);
    let qs = queries(6);
    let ids: Vec<EntityId> = (0..N as u32).map(EntityId).collect();
    let dense = DenseIndex::try_from_vectors(vectors.clone(), ids.clone()).expect("one id per row");
    assert_matches_oracle("f64", &dense, Table::F64(&vectors), &qs);
    let f16 = QuantF16::from_tensor(&vectors);
    let index = QuantizedIndex::from_f16(f16.clone(), ids.clone()).expect("aligned");
    assert_matches_oracle("f16", &index, Table::F16(&f16), &qs);
    let int8 = QuantI8::from_tensor(&vectors);
    let index = QuantizedIndex::from_i8(int8.clone(), ids).expect("aligned");
    assert_matches_oracle("int8", &index, Table::Int8(&int8), &qs);
}

#[test]
fn ivf_probing_every_list_scores_like_the_flat_scan() {
    let vectors = near_tie_vectors(7);
    let qs = queries(8);
    for quant in [QuantMode::F16, QuantMode::Int8] {
        let dir = std::env::temp_dir()
            .join(format!("mb-retrieval-oracle-{quant:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig { shard_capacity: 256, dim: DIM, quant };
        let mut builder = StoreBuilder::create(&dir, cfg).expect("scratch store");
        for i in 0..N {
            builder
                .push(StoreRecord {
                    title: format!("entity {i}"),
                    description: String::new(),
                    vector: vectors.row(i).to_vec(),
                })
                .expect("push");
        }
        let store = Arc::new(builder.finish().expect("finish"));
        let cfg = IvfConfig { nlist: 9, nprobe: 9, train_cap: 512, rounds: 3, seed: 1 };
        let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::single()).expect("build");
        let flat = store.quantized_index().expect("flat index");
        // k = n: both return every row, so ordering on exact ties
        // (probe-ordered position vs row) is the only thing that may
        // differ — compare as sets.
        let by_id = |mut r: Vec<(u32, u64)>| {
            r.sort_unstable();
            r
        };
        let got = ivf.top_k_batch(&qs, N, Threads::new(2)).expect("ivf");
        let want = flat.top_k_batch(&qs, N, Threads::single()).expect("flat");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(w.len(), N);
            assert_eq!(by_id(bits(g)), by_id(bits(w)), "{quant:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
