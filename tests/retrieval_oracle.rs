//! Tier-1 slice of the retrieval contract (the property suites live in
//! `crates/encoders/tests/proptest_fused_batch.rs` and
//! `crates/store/tests/proptest_store.rs`): for each element type the
//! one scan behind `top_k_batch` equals the independent oracle —
//! reference fold over every row, full sort — bit for bit, at every
//! batch of 1–9 queries (so the int8 scan runs member groups of 1, 2, 3
//! and 4, alone and after a full group, and a second query block of
//! one), across a query-block boundary, an int8 run boundary and
//! thread counts; the int8 scan's tiles hold at every tile edge, at odd
//! widths and on raw tables with extreme codes and whole tiles of NaN
//! or infinite scales; int8 sums that are exact zeros — every product
//! `-0.0`, or products cancelling — score with the oracle's sign; an
//! IVF probing every list scores every row like the flat scan, empty
//! lists and lists shorter than a tile included; and IVF queries that
//! share their probed lists, so list scans run groups of several
//! members, score every row by the reference fold.

#[path = "../crates/encoders/tests/support/mod.rs"]
mod support;

use mb_common::Rng;
use mb_encoders::retrieval::{CandidateSource, DenseIndex, QuantizedIndex};
use mb_kb::EntityId;
use mb_par::Threads;
use mb_store::{EntityStore, IvfConfig, IvfIndex, StoreBuilder, StoreConfig, StoreRecord};
use mb_tensor::kernels::TILE_ROWS;
use mb_tensor::quant::{quantize_i8, QuantI8};
use mb_tensor::{QuantMode, Tensor};
use std::path::PathBuf;
use std::sync::Arc;
use support::{reference_scores, reference_top_k, Table};

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

/// The first `batch` rows of `qs`.
fn prefix(qs: &Tensor, batch: usize) -> Tensor {
    Tensor::from_vec(vec![batch, qs.cols()], qs.data()[..batch * qs.cols()].to_vec())
}

fn bits(ranked: &[(EntityId, f64)]) -> Vec<(u32, u64)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// `index` ranks the first 1–9 rows of `qs`, and all of them, like the
/// oracle at 1 and 3 threads.
fn assert_matches_oracle(what: &str, index: &dyn CandidateSource, table: Table<'_>, qs: &Tensor) {
    let oracle: Vec<_> = (0..qs.rows()).map(|i| reference_top_k(table, qs.row(i), K)).collect();
    for batch in (1..=9).chain([qs.rows()]) {
        for threads in [1, 3] {
            let got = index
                .top_k_batch(&prefix(qs, batch), K, Threads::new(threads))
                .expect("well-shaped queries");
            let got: Vec<_> = got.iter().map(|r| bits(r)).collect();
            assert_eq!(got, oracle[..batch], "{what}: batch {batch} at {threads} threads");
        }
    }
}

#[test]
fn every_element_type_matches_the_oracle() {
    let vectors = near_tie_vectors(5);
    let qs = queries(6);
    let ids: Vec<EntityId> = (0..N as u32).map(EntityId).collect();
    let dense = DenseIndex::try_from_vectors(vectors.clone(), ids.clone()).expect("one id per row");
    assert_matches_oracle("f64", &dense, Table::F64(&vectors), &qs);
    let int8 = QuantI8::from_tensor(&vectors);
    let index = QuantizedIndex::from_i8([&int8], ids).expect("aligned");
    assert_matches_oracle("int8", &index, Table::Int8(&int8), &qs);
}

/// Int8 tables at every tile edge — 1, T−1, T, T+1 and 512+T+1 rows
/// (past a run) at widths 1, 2, 9 and 33 — built raw, as a shard load
/// would: codes over the whole `i8` range (−128 and 127 included);
/// tiles whose scales are all NaN, all infinite, or zero, infinite and
/// NaN between ordinary ones. NaN scores are never returned, ±0 scores
/// tie, and `-inf` scores are returned while the selector has room;
/// every ranking of 1–9 queries, at `k` = 10 and `k` = every row,
/// equals the oracle's at 1–4 threads.
#[test]
fn int8_tile_edges_and_raw_extremes_match_the_oracle() {
    let mut rng = Rng::seed_from_u64(9);
    for n in [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 512 + TILE_ROWS + 1] {
        for dim in [1, 2, 9, 33] {
            let mut codes: Vec<i8> = (0..n * dim).map(|_| rng.below(256) as u8 as i8).collect();
            codes[0] = -128;
            codes[n * dim - 1] = 127;
            let scales: Vec<f64> = (0..n)
                .map(|i| match ((i / TILE_ROWS + dim) % 3, i % 7) {
                    (0, _) => f64::NAN,
                    (1, _) | (_, 4) => f64::INFINITY,
                    (_, 3) => 0.0,
                    (_, 5) => f64::NAN,
                    _ => rng.f64() * 0.02,
                })
                .collect();
            let table = QuantI8::from_raw(n, dim, codes, scales).expect("consistent parts");
            let ids = (0..n as u32).map(EntityId).collect();
            let index = QuantizedIndex::from_i8([&table], ids).expect("aligned");
            let data = (0..9 * dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
            let qs = Tensor::from_vec(vec![9, dim], data);
            for k in [K, n] {
                let oracle: Vec<_> =
                    (0..9).map(|i| reference_top_k(Table::Int8(&table), qs.row(i), k)).collect();
                for batch in 1..=9 {
                    for threads in 1..=4 {
                        let got = index
                            .top_k_batch(&prefix(&qs, batch), k, Threads::new(threads))
                            .expect("batch");
                        let got: Vec<_> = got.iter().map(|r| bits(r)).collect();
                        assert_eq!(
                            got,
                            oracle[..batch],
                            "{n} rows x {dim}, k {k}, batch {batch} at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

/// Int8 rows whose exact sums are zero, where a float accumulator could
/// leave a `-0.0` the integer fold never does, in three kinds: negative
/// codes (against an all-zero query every product is `-0.0`), code
/// pairs `+a`, `−a` (against a query with equal codes in each pair the
/// products cancel exactly) and random codes of zero scale. A third of
/// the queries are zero vectors, a third repeat each value twice and a
/// third are random. Every ranking of 1–9 queries, at `k` = 10 and
/// `k` = every row, equals the oracle's by score bits, so a zero of the
/// wrong sign shows.
#[test]
fn int8_zero_sums_and_cancellations_match_the_oracle() {
    let mut rng = Rng::seed_from_u64(13);
    let (n, dim) = (3 * TILE_ROWS + 5, 10);
    let mut codes: Vec<i8> = Vec::with_capacity(n * dim);
    let mut scales = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..dim {
            let a = 1 + rng.below(127) as i8;
            codes.push(match i % 3 {
                0 => -a - (j % 2) as i8,
                1 if j % 2 == 0 => a,
                1 => -codes[codes.len() - 1],
                _ => rng.below(256) as u8 as i8,
            });
        }
        scales.push(if i % 3 == 2 { 0.0 } else { 0.001 + rng.f64() * 0.01 });
    }
    let table = QuantI8::from_raw(n, dim, codes, scales).expect("consistent parts");
    let index =
        QuantizedIndex::from_i8([&table], (0..n as u32).map(EntityId).collect()).expect("aligned");
    let mut data = Vec::with_capacity(9 * dim);
    for i in 0..9 {
        let pair: Vec<f64> = (0..dim / 2).map(|_| rng.f64() * 2.0 - 1.0).collect();
        data.extend((0..dim).map(|j| match i % 3 {
            0 => 0.0,
            1 => pair[j / 2],
            _ => rng.f64() * 2.0 - 1.0,
        }));
    }
    let qs = Tensor::from_vec(vec![9, dim], data);
    for k in [K, n] {
        let oracle: Vec<_> =
            (0..9).map(|i| reference_top_k(Table::Int8(&table), qs.row(i), k)).collect();
        for batch in 1..=9 {
            for threads in [1, 3] {
                let got = index
                    .top_k_batch(&prefix(&qs, batch), k, Threads::new(threads))
                    .expect("batch");
                let got: Vec<_> = got.iter().map(|r| bits(r)).collect();
                assert_eq!(got, oracle[..batch], "k {k}, batch {batch} at {threads} threads");
            }
        }
    }
}

/// An int8 store of `vectors` rows, under a scratch directory named by
/// `tag`.
fn scratch_store(tag: &str, vectors: &Tensor) -> (Arc<EntityStore>, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("mb-retrieval-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig { shard_capacity: 256, dim: vectors.cols(), quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(&dir, cfg).expect("scratch store");
    for i in 0..vectors.rows() {
        builder
            .push(StoreRecord {
                title: format!("entity {i}"),
                description: String::new(),
                vector: vectors.row(i).to_vec(),
            })
            .expect("push");
    }
    (Arc::new(builder.finish().expect("finish")), dir)
}

/// With `nprobe == nlist` and `k == n` the IVF returns every row,
/// scored out of its packed lists; it must return the flat scan's
/// `(id, score bits)` set. Ordering on exact ties (probe-ordered
/// position vs row) is the only thing that may differ.
fn assert_ivf_scores_like_flat(store: &Arc<EntityStore>, cfg: IvfConfig, qs: &Tensor) {
    let n = store.len();
    let ivf = IvfIndex::build(Arc::clone(store), cfg, Threads::single()).expect("build");
    let flat = store.quantized_index().expect("flat index");
    let by_id = |mut r: Vec<(u32, u64)>| {
        r.sort_unstable();
        r
    };
    let want = flat.top_k_batch(qs, n, Threads::single()).expect("flat");
    for threads in [1, 2] {
        let got = ivf.top_k_batch(qs, n, Threads::new(threads)).expect("ivf");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(w.len(), n);
            assert_eq!(by_id(bits(g)), by_id(bits(w)));
        }
    }
}

#[test]
fn ivf_probing_every_list_scores_like_the_flat_scan() {
    let vectors = near_tie_vectors(7);
    let qs = queries(8);
    let (store, dir) = scratch_store("near-tie", &vectors);
    let cfg = IvfConfig { nlist: 9, nprobe: 9, train_cap: 512, rounds: 3, seed: 1 };
    assert_ivf_scores_like_flat(&store, cfg, &qs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows along six coordinate axes, `(1 + r / 100) · e_a`, with T+9, 1,
/// T−1, T, T+1 and 2 rows per axis, and one list per row (`nlist = n`,
/// so every row seeds a centroid). A row scores 0 against any centroid
/// on another axis, so each axis's rows always share one list: six
/// lists hold 1, 2, T−1, T, T+1 and T+9 rows and every other list is
/// empty. The int8 lists are scanned out of tiles padded past their
/// rows, or out of no tile at all.
#[test]
fn ivf_lists_empty_or_shorter_than_a_tile_score_like_the_flat_scan() {
    let per_axis = [TILE_ROWS + 9, 1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2];
    let n: usize = per_axis.iter().sum();
    let mut data = Vec::with_capacity(n * DIM);
    for (axis, &rows) in per_axis.iter().enumerate() {
        for r in 0..rows {
            let mut v = [0.0; DIM];
            v[axis] = 1.0 + r as f64 / 100.0;
            data.extend_from_slice(&v);
        }
    }
    let vectors = Tensor::from_vec(vec![n, DIM], data);
    let qs = queries(10);
    let cfg = IvfConfig { nlist: n, nprobe: n, train_cap: n, rounds: 3, seed: 2 };
    let (store, dir) = scratch_store("short-lists", &vectors);
    assert_ivf_scores_like_flat(&store, cfg, &qs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nine queries a hair from one entity all probe the same lists, so
/// every probed list is scanned for up to eight members of a block at
/// once — int8 groups of 2, 3 and 4 (and 4 + 1 … 4 + 4), where serving
/// mostly scans groups of one. With `nprobe < nlist` there is no flat
/// ranking to match, so the oracle is the probed rows themselves: at
/// `k` = every row each query returns the same probed set (the lists
/// really are shared), each row with the reference fold's score bits;
/// and at any `k` every batch of 1–9 ranks like one-row batches, whose
/// lists are scanned for that query alone.
#[test]
fn ivf_queries_sharing_their_lists_match_the_oracle() {
    let mut rng = Rng::seed_from_u64(11);
    let vectors = Tensor::from_vec(vec![N, DIM], (0..N * DIM).map(|_| rng.gaussian()).collect());
    let (store, dir) = scratch_store("shared-lists", &vectors);
    let cfg = IvfConfig { nlist: 9, nprobe: 3, train_cap: 512, rounds: 3, seed: 1 };
    let ivf = IvfIndex::build(Arc::clone(&store), cfg, Threads::single()).expect("build");
    let table = QuantI8::from_tensor(&vectors);
    let data = (0..9 * DIM).map(|i| vectors.row(0)[i % DIM] + 0.05 * rng.gaussian()).collect();
    let qs = Tensor::from_vec(vec![9, DIM], data);
    // Close enough to share lists, apart enough to differ as int8
    // queries, so a member scored with another's codes shows.
    let codes: Vec<_> = (0..9).map(|i| quantize_i8(qs.row(i))).collect();
    assert!((1..9).all(|i| !codes[..i].contains(&codes[i])), "two queries quantize alike");
    let n = store.len();
    let mut probed: Option<Vec<u32>> = None;
    for i in 0..9 {
        let want = reference_scores(Table::Int8(&table), qs.row(i));
        let mut got = bits(&ivf.top_k(qs.row(i), n));
        for &(id, score) in &got {
            assert_eq!(score, want[id as usize].to_bits(), "query {i}, row {id}");
        }
        got.sort_unstable();
        let rows: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
        assert!(rows.len() < n, "nprobe < nlist probes a subset of the rows");
        assert_eq!(
            probed.get_or_insert_with(|| rows.clone()),
            &rows,
            "query {i} probed other lists"
        );
    }
    for k in [K, n] {
        let one_row: Vec<_> = (0..9).map(|i| bits(&ivf.top_k(qs.row(i), k))).collect();
        for batch in 1..=9 {
            for threads in 1..=4 {
                let got = ivf.top_k_batch(&prefix(&qs, batch), k, Threads::new(threads));
                let got: Vec<_> = got.expect("batch").iter().map(|r| bits(r)).collect();
                assert_eq!(got, one_row[..batch], "k {k}, batch {batch} at {threads} threads");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
