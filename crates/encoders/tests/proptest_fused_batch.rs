//! Property suite for the retrieval scan (DESIGN.md §16): for ANY
//! batch size, ANY k, and ANY worker count, `top_k_batch` must be
//! **byte-for-byte** identical to (a) per-query `top_k` — the one-row
//! batch, which crosses different block compositions, member groups
//! and selector floors — and (b) the independent oracle in `support`
//! (score every row with the reference fold, sort everything): same
//! entity ids, same `f64::to_bits` score patterns, for both element
//! types. The fixtures are the adversarial near-tie
//! distributions from the quantized-retrieval suite, so the
//! lowest-position tie-break is actually exercised, not just the
//! clear-margin happy path; int8 tables also come raw, at the scan's
//! tile edges, with extreme codes and tiles of zero / infinite / NaN
//! scales. Quantized batches hold 1–9 queries, so the int8 scan's
//! member groups of 1, 2, 3 and 4, and a full group plus 1–4 more, are
//! all drawn.

mod support;

use mb_check::gen;
use mb_check::prop_assert_eq;
use mb_common::Rng;
use mb_encoders::retrieval::CandidateSource;
use mb_encoders::{DenseIndex, QuantizedIndex};
use mb_kb::EntityId;
use mb_par::Threads;
use mb_tensor::kernels::TILE_ROWS;
use mb_tensor::quant::QuantI8;
use mb_tensor::Tensor;
use support::{reference_top_k, Table};

/// Rows that are small perturbations of one base direction: every pair
/// of scores is a near tie by construction.
fn near_tie_vectors(n: usize, dim: usize, spread: f64, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let base: Vec<f64> = (0..dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        for b in &base {
            data.push(b + (rng.f64() * 2.0 - 1.0) * spread);
        }
    }
    Tensor::from_vec(vec![n, dim], data)
}

/// Row `i` is entity `i`, so oracle rows compare to ids directly.
fn row_ids(n: usize) -> Vec<EntityId> {
    (0..n as u32).map(EntityId).collect()
}

fn near_tie_index(n: usize, dim: usize, spread: f64, seed: u64) -> DenseIndex {
    DenseIndex::try_from_vectors(near_tie_vectors(n, dim, spread, seed), row_ids(n))
        .expect("one id per row")
}

/// A `[batch, dim]` query matrix drawn near the index distribution so
/// rankings hit real near-ties.
fn query_matrix(batch: usize, dim: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let data: Vec<f64> = (0..batch * dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
    Tensor::from_vec(vec![batch, dim], data)
}

/// Render rankings to raw bytes: ids plus exact score bit patterns.
fn bits(rankings: &[Vec<(EntityId, f64)>]) -> Vec<Vec<(u32, u64)>> {
    rankings.iter().map(|r| r.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()).collect()
}

/// `top_k_batch` at 1–4 threads ≡ per-row `top_k` ≡ the oracle.
fn check_against_serial_and_oracle(
    what: &str,
    index: &dyn CandidateSource,
    table: Table<'_>,
    queries: &Tensor,
    k: usize,
) -> Result<(), String> {
    let batch = queries.rows();
    let serial: Vec<Vec<(EntityId, f64)>> =
        (0..batch).map(|i| index.top_k(queries.row(i), k)).collect();
    let oracle: Vec<Vec<(u32, u64)>> =
        (0..batch).map(|i| reference_top_k(table, queries.row(i), k)).collect();
    prop_assert_eq!(&bits(&serial), &oracle, "{}: serial vs oracle, batch={} k={}", what, batch, k);
    for t in 1..=4 {
        let fused = index.top_k_batch(queries, k, Threads::new(t)).expect("fused");
        prop_assert_eq!(
            &bits(&fused),
            &oracle,
            "{}: batch={} k={} n={} threads={}",
            what,
            batch,
            k,
            index.len(),
            t
        );
    }
    Ok(())
}

mb_check::check! {
    #![config(cases = 24)]

    fn dense_batch_is_bit_identical_to_serial_and_oracle(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        let (n, dim) = (4 + rng.below(60), 3 + rng.below(14));
        let batch = 1 + rng.below(64);
        let k = 1 + rng.below(n + 4); // sometimes k > n
        let spread = [1e-12, 1e-6, 1e-2][rng.below(3)];
        let vectors = near_tie_vectors(n, dim, spread, seed ^ 1);
        let index = DenseIndex::try_from_vectors(vectors.clone(), row_ids(n)).expect("one id per row");
        let queries = query_matrix(batch, dim, seed ^ 2);
        check_against_serial_and_oracle("dense", &index, Table::F64(&vectors), &queries, k)?;
    }

    fn quantized_batch_is_bit_identical_to_serial_and_oracle(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        // Past 512 rows the int8 scan crosses a run boundary; the edge
        // counts put a tile's last row, or one past it, at the end.
        let n = match rng.below(4) {
            0 => 500 + rng.below(600),
            1 => TILE_EDGES[rng.below(TILE_EDGES.len())],
            _ => 4 + rng.below(60),
        };
        let dim = if rng.below(2) == 0 { [1, 2, 9, 33][rng.below(4)] } else { 3 + rng.below(14) };
        let batch = 1 + rng.below(9);
        let k = 1 + rng.below(n.min(64) + 4);
        let spread = [1e-6, 1e-3, 1e-1][rng.below(3)];
        let vectors = near_tie_vectors(n, dim, spread, seed ^ 3);
        let queries = query_matrix(batch, dim, seed ^ 4);
        let i8s = QuantI8::from_tensor(&vectors);
        let index = QuantizedIndex::from_i8([&i8s], row_ids(n)).expect("aligned");
        check_against_serial_and_oracle("int8", &index, Table::Int8(&i8s), &queries, k)?;
    }

    fn raw_int8_tables_with_extreme_codes_and_scales_match_the_oracle(seed in gen::u64_any()) {
        // What a CRC-valid shard may hold: any i8 code (−128 included)
        // and any scale — zero, infinite or NaN between ordinary ones,
        // or a whole tile of NaN or of infinite scales.
        let mut rng = Rng::seed_from_u64(seed);
        let n = TILE_EDGES[rng.below(TILE_EDGES.len())];
        let dim = [1, 2, 9, 33][rng.below(4)];
        let codes: Vec<i8> = (0..n * dim)
            .map(|_| match rng.below(8) {
                0 => -128,
                1 => 127,
                _ => rng.below(256) as u8 as i8,
            })
            .collect();
        let tiles: Vec<usize> = (0..n.div_ceil(TILE_ROWS)).map(|_| rng.below(4)).collect();
        let scales: Vec<f64> = (0..n)
            .map(|i| match (tiles[i / TILE_ROWS], rng.below(8)) {
                (0, _) => f64::NAN,
                (1, _) | (_, 1) => f64::INFINITY,
                (_, 0) => 0.0,
                (_, 2) => f64::NAN,
                _ => rng.f64() * 0.02,
            })
            .collect();
        let table = QuantI8::from_raw(n, dim, codes, scales).expect("consistent parts");
        let index = QuantizedIndex::from_i8([&table], row_ids(n)).expect("aligned");
        let queries = query_matrix(1 + rng.below(9), dim, seed ^ 5);
        let k = 1 + rng.below(n.min(64) + 4);
        check_against_serial_and_oracle("raw int8", &index, Table::Int8(&table), &queries, k)?;
    }
}

/// Row counts at the int8 scan's tile edges: one row, a tile short by
/// one, exactly one tile, one past it, and one past a run plus a tile.
const TILE_EDGES: [usize; 5] = [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 512 + TILE_ROWS + 1];

#[test]
fn empty_batches_and_bad_shapes_are_handled_without_panicking() {
    let index = near_tie_index(12, 6, 1e-3, 9);
    // Zero queries: empty result at any thread count.
    let empty = Tensor::zeros(vec![0, 6]);
    assert!(index.top_k_batch(&empty, 4, Threads::new(2)).expect("empty").is_empty());
    // Rank-1 queries and wrong widths are typed errors, not panics.
    let rank1 = Tensor::zeros(vec![6]);
    assert!(index.top_k_batch(&rank1, 4, Threads::single()).is_err());
    let wide = Tensor::zeros(vec![2, 7]);
    assert!(index.top_k_batch(&wide, 4, Threads::single()).is_err());
    let q = QuantizedIndex::from_dense(&index).expect("int8");
    assert!(q.top_k_batch(&rank1, 4, Threads::single()).is_err());
    assert!(q.top_k_batch(&wide, 4, Threads::single()).is_err());
    assert!(q.top_k_batch(&empty, 4, Threads::new(3)).expect("empty").is_empty());
}
