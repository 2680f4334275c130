//! Cache-blocked, register-tiled matmul micro-kernels.
//!
//! Both rank-2 products (`A·B` and `A·Bᵀ`) funnel into one blocked
//! kernel in the classic three-level scheme: panels of `KC` inner-dim
//! steps, blocks of `MC` output rows, and an `MR×NR` register tile
//! updated by an inner loop over the packed panels. The `A` block is
//! packed `MR`-interleaved and the `B` panel `NR`-wide so the micro-
//! kernel streams both operands contiguously (packing is also where the
//! `Bᵀ` layout is absorbed — the micro-kernel never knows).
//!
//! ## Determinism contract (DESIGN.md §11)
//!
//! Every output element is accumulated as **one left fold in ascending
//! inner-dimension order** — `((0 + t₀) + t₁) + …` — exactly the order
//! of the textbook triple loop, using separate multiply and add (no
//! FMA). Blocking changes *when* each term is added, never the order
//! within an element's chain, so the blocked kernel is bit-identical to
//! the naive reference on every input, including non-finite values
//! (pinned by the mb-check property suite). The kernels run on the
//! calling thread; callers parallelise one level up, over chunks,
//! queries, mentions and examples.
//!
//! Unlike the pre-blocking kernel, zero entries of `A` are *not*
//! skipped: `0·∞` and `0·NaN` now propagate NaN per IEEE 754 instead of
//! silently contributing nothing, which is required for the exact-
//! equality contract above.

use crate::tensor::Tensor;

/// Register-tile rows: independent accumulator chains per tile row.
const MR: usize = 4;
/// Register-tile columns: the SIMD-parallel dimension.
const NR: usize = 16;
/// Inner-dimension panel length; one `KC×NR` B panel stays in L1.
const KC: usize = 256;
/// Output-row block height; one `MC×KC` packed A block stays in L2.
const MC: usize = 128;

/// Below this the packing overhead outweighs the cache savings and the
/// plain triple loop wins; both paths produce identical bits, so the
/// dispatch is a pure perf heuristic.
fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && k >= 16 && m * k * n >= 32 * 32 * 32
}

/// `B` element at inner index `p`, column `j`, for either layout.
/// `ldb` is the row stride of the stored matrix: `B` is `k×n` when
/// `bt == false` and `n×k` when `bt == true`.
#[inline]
fn b_at(b: &[f64], ldb: usize, p: usize, j: usize, bt: bool) -> f64 {
    if bt {
        b[j * ldb + p]
    } else {
        b[p * ldb + j]
    }
}

/// The naive reference: textbook loops, one ascending-`p` fold per
/// output element. Used below the blocking threshold and by the
/// property tests as the semantic reference.
fn simple(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize, bt: bool) {
    if bt {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                out[i * n + j] = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
    } else {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Blocked product `out[0..rows][0..n] += a[0..rows][0..k] · B`, where
/// `B` is `k×n` (`bt == false`) or `n×k` interpreted as transposed
/// (`bt == true`). `out` must start zeroed.
fn blocked(a: &[f64], b: &[f64], out: &mut [f64], rows: usize, k: usize, n: usize, bt: bool) {
    let ldb = if bt { k } else { n };
    // Packed as arrays, so the micro-kernel's tile operands are
    // `[f64; MR]` / `[f64; NR]` by type.
    let mut apack = vec![[0.0; MR]; MC / MR * KC];
    let mut bpack = vec![[0.0; NR]; KC];
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for ic in (0..rows).step_by(MC) {
            let mc = MC.min(rows - ic);
            // Pack full MR-panels of the A block, interleaved so the
            // micro-kernel reads one `[f64; MR]` per inner step. Tail
            // rows (mc % MR) stay unpacked and take the scalar path.
            let full_panels = mc / MR;
            {
                let mut w = 0;
                for panel in 0..full_panels {
                    let r0 = ic + panel * MR;
                    for p in 0..kc {
                        for (ii, slot) in apack[w].iter_mut().enumerate() {
                            *slot = a[(r0 + ii) * k + pc + p];
                        }
                        w += 1;
                    }
                }
            }
            for jc in (0..n).step_by(NR) {
                let nr = NR.min(n - jc);
                if nr == NR {
                    for (p, bv) in bpack[..kc].iter_mut().enumerate() {
                        for (jj, slot) in bv.iter_mut().enumerate() {
                            *slot = b_at(b, ldb, pc + p, jc + jj, bt);
                        }
                    }
                }
                let mut ir = 0;
                while ir + MR <= mc {
                    let i0 = ic + ir;
                    if nr == NR {
                        // MR×NR micro-kernel over packed panels.
                        let mut acc = [[0.0f64; NR]; MR];
                        for (ii, row) in acc.iter_mut().enumerate() {
                            row.copy_from_slice(&out[(i0 + ii) * n + jc..(i0 + ii) * n + jc + NR]);
                        }
                        let panel = ir / MR;
                        let ap = &apack[panel * kc..(panel + 1) * kc];
                        for (av, bv) in ap.iter().zip(&bpack[..kc]) {
                            for (ii, row) in acc.iter_mut().enumerate() {
                                for (jj, slot) in row.iter_mut().enumerate() {
                                    *slot += av[ii] * bv[jj];
                                }
                            }
                        }
                        for (ii, row) in acc.iter().enumerate() {
                            out[(i0 + ii) * n + jc..(i0 + ii) * n + jc + NR].copy_from_slice(row);
                        }
                    } else {
                        // Column tail: scalar folds, same order.
                        for ii in 0..MR {
                            for jj in 0..nr {
                                let mut acc = out[(i0 + ii) * n + jc + jj];
                                for p in 0..kc {
                                    acc += a[(i0 + ii) * k + pc + p]
                                        * b_at(b, ldb, pc + p, jc + jj, bt);
                                }
                                out[(i0 + ii) * n + jc + jj] = acc;
                            }
                        }
                    }
                    ir += MR;
                }
                // Row tail: scalar folds, same order.
                while ir < mc {
                    let i0 = ic + ir;
                    for jj in 0..nr {
                        let mut acc = out[i0 * n + jc + jj];
                        for p in 0..kc {
                            acc += a[i0 * k + pc + p] * b_at(b, ldb, pc + p, jc + jj, bt);
                        }
                        out[i0 * n + jc + jj] = acc;
                    }
                    ir += 1;
                }
            }
        }
    }
}

/// Shared entry point for both products. `bt` selects `A·Bᵀ`.
pub(crate) fn matmul_impl(a: &Tensor, b: &Tensor, bt: bool) -> Tensor {
    let op = if bt { "matmul_t" } else { "matmul" };
    assert_eq!(a.rank(), 2, "{op} lhs rank {:?}", a.shape());
    assert_eq!(b.rank(), 2, "{op} rhs rank {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = if bt { (b.shape()[0], b.shape()[1]) } else { (b.shape()[1], b.shape()[0]) };
    if bt {
        assert_eq!(k, k2, "matmul_t: {:?} @ {:?}^T", a.shape(), b.shape());
    } else {
        assert_eq!(k, k2, "matmul: {:?} @ {:?}", a.shape(), b.shape());
    }
    let mut out = vec![0.0; m * n];
    let (ad, bd) = (a.data(), b.data());
    if use_blocked(m, k, n) {
        blocked(ad, bd, &mut out, m, k, n, bt);
    } else {
        simple(ad, bd, &mut out, m, k, n, bt);
    }
    Tensor::from_vec(vec![m, n], out)
}

/// The naive reference kernel, exposed for the property suite and the
/// kernels benchmark: bit-for-bit the semantics `matmul`/`matmul_t`
/// promise, with none of the blocking.
pub fn matmul_reference(a: &Tensor, b: &Tensor, bt: bool) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = if bt { b.shape()[0] } else { b.shape()[1] };
    let mut out = vec![0.0; m * n];
    simple(a.data(), b.data(), &mut out, m, k, n, bt);
    Tensor::from_vec(vec![m, n], out)
}

/// Dot product of an int8-quantized query against every row of a
/// per-row-scaled int8 table. Products accumulate **exactly** in `i64`
/// (no per-element dequantization); each row's sum is scaled back to
/// `f64` in one final multiplication, so the only float rounding is
/// that last step.
pub(crate) fn score_all_i8(
    table: &[i8],
    scales: &[f64],
    rows: usize,
    cols: usize,
    query: &[i8],
    query_scale: f64,
) -> Vec<f64> {
    assert_eq!(table.len(), rows * cols, "score_all_i8: table size mismatch");
    assert_eq!(scales.len(), rows, "score_all_i8: scales length mismatch");
    assert_eq!(query.len(), cols, "score_all_i8: query dim mismatch");
    (0..rows)
        .map(|i| {
            let acc: i64 = table[i * cols..(i + 1) * cols]
                .iter()
                .zip(query)
                .map(|(&t, &q)| i64::from(t) * i64::from(q))
                .sum();
            acc as f64 * (scales[i] * query_scale)
        })
        .collect()
}

/// Queries per retrieval scan block (DESIGN.md §16). The block-dot
/// kernel below carries a specialization unrolled for exactly this
/// width, so `mb_encoders::retrieval` blocks its queries at the same
/// number.
pub const DOT_BLOCK: usize = 8;

/// Widest int8 row [`dot_tile_i8_n`] sums exactly in `f32`. Any `i8`
/// code is accepted — a shard may hold −128 — so each product is an
/// integer of magnitude at most `128 * 128` = 2¹⁴, and every partial
/// sum of up to this many products is an integer of magnitude at most
/// 2²⁴, which `f32` represents exactly. Up to this width the `f32` fold
/// is the same integer as the reference `i64` fold in
/// `score_all_i8`. Every int8 scan table constructor rejects wider
/// rows.
pub const I8_EXACT_COLS: usize = (1 << f32::MANTISSA_DIGITS) / (128 * 128);

/// Rows per int8 scan tile: a tile stores [`TILE_ROWS`] rows
/// dimension-major (`tile[j * TILE_ROWS + r]`), so a query scores all
/// of them with vertical SIMD ops and no horizontal reduction
/// ([`dot_tile_i8_n`]).
pub const TILE_ROWS: usize = 32;

/// Most queries [`dot_tile_i8_n`] scores per pass over a tile: each
/// query holds `TILE_ROWS` `f32` accumulators in registers, and four
/// is what fits beside the widened column.
pub const TILE_QUERIES: usize = 4;

/// Fixed-width tile of [`dot_block_f64`]: with `N` known at compile
/// time the accumulators live in registers and the slot loop fully
/// unrolls, so every width `2..=DOT_BLOCK` gets its own tight loop
/// instead of a dynamic inner trip count the vectorizer gives up on.
#[inline]
fn dot_tile_f64<const N: usize>(v: &[f64], qt: &[f64], acc: &mut [f64]) {
    let mut a = [0.0f64; N];
    for (&x, q) in v.iter().zip(qt.chunks_exact(N)) {
        for (slot, &qv) in a.iter_mut().zip(q) {
            *slot += x * qv;
        }
    }
    acc[..N].copy_from_slice(&a);
}

/// Multi-query dot: `acc[s] = Σ_j v[j] * qt[j * nq + s]` for every
/// query slot `s`, where `qt` is the query block transposed to
/// `[v.len(), nq]` row-major. Each slot's sum is one ascending-`j`
/// fold from `0.0` with separate multiply and add (no FMA) —
/// bit-identical to the serial `v · q_s` dot — while the `nq`
/// independent chains break the float latency chain a lone dot product
/// is stuck behind. This is what makes fused retrieval faster than
/// per-query scoring. `nq == 1` degenerates to exactly the serial fold
/// so singleton groups pay no tile overhead.
#[inline]
pub fn dot_block_f64(v: &[f64], qt: &[f64], nq: usize, acc: &mut [f64]) {
    debug_assert_eq!(qt.len(), v.len() * nq, "dot_block_f64: qt shape");
    debug_assert_eq!(acc.len(), nq, "dot_block_f64: acc length");
    match nq {
        1 => acc[0] = v.iter().zip(qt).map(|(&x, &q)| x * q).sum(),
        2 => dot_tile_f64::<2>(v, qt, acc),
        3 => dot_tile_f64::<3>(v, qt, acc),
        4 => dot_tile_f64::<4>(v, qt, acc),
        5 => dot_tile_f64::<5>(v, qt, acc),
        6 => dot_tile_f64::<6>(v, qt, acc),
        7 => dot_tile_f64::<7>(v, qt, acc),
        8 => dot_tile_f64::<8>(v, qt, acc),
        _ => {
            acc.fill(0.0);
            for (&x, q) in v.iter().zip(qt.chunks_exact(nq.max(1))) {
                for (slot, &qv) in acc.iter_mut().zip(q) {
                    *slot += x * qv;
                }
            }
        }
    }
}

/// Re-lay `n` rows of `dim` elements (`rows` yields them in order) into
/// tiles of `width` rows stored dimension-major: row `i`'s element `j`
/// lands at `tiles[(i / width) * width * dim + j * width + i % width]`.
/// The last tile is padded with `E::default()` rows, so the result
/// holds `n.div_ceil(width) * width * dim` elements. Rows may be
/// borrowed or produced on the fly, so no row-major copy of the table
/// need exist beside the tiles.
pub fn tile_rows<E: Copy + Default, R: AsRef<[E]>>(
    width: usize,
    n: usize,
    dim: usize,
    rows: impl IntoIterator<Item = R>,
) -> Vec<E> {
    let mut tiles = vec![E::default(); n.div_ceil(width) * width * dim];
    for (i, row) in rows.into_iter().take(n).enumerate() {
        let (tile, r) = (i / width * width * dim, i % width);
        for (j, &x) in row.as_ref().iter().take(dim).enumerate() {
            tiles[tile + j * width + r] = x;
        }
    }
    tiles
}

/// Score one [`TILE_ROWS`]-row int8 tile (laid out by [`tile_rows`])
/// against `N` queries (`1..=`[`TILE_QUERIES`]):
/// `acc[s][r] = Σ_j tile[j * TILE_ROWS + r] * queries[s][j]`.
///
/// Per column the tile's codes are widened to `f32` once and
/// multiply-added against each query's code: rows sit in SIMD lanes,
/// the queries are independent accumulator registers, and there is no
/// horizontal reduction. The sums are integers computed in `f32`
/// because one fused multiply-add is cheaper than an `i32` multiply and
/// add, and for rows at most [`I8_EXACT_COLS`] wide every product and
/// partial sum is exactly representable: no step rounds, so every lane
/// is the exact integer the reference `i64` fold of `score_all_i8`
/// produces, whatever the order or fusion of the steps. The
/// accumulators start at `+0.0`, and under round-to-nearest a sum is
/// `-0.0` only when both addends are, so no lane is ever `-0.0`: a zero
/// lane converts like the integer 0.
///
/// The inner loops run over rows, then queries, by index on purpose:
/// iterator forms that walk the query slices innermost have compiled
/// to scalar multiplies or to gathers and scatters, several times
/// slower.
#[inline]
pub fn dot_tile_i8_n<const N: usize>(tile: &[i8], queries: [&[i8]; N]) -> [[f32; TILE_ROWS]; N] {
    debug_assert!(
        queries.iter().all(|q| q.len() * TILE_ROWS == tile.len()),
        "dot_tile_i8_n: tile shape"
    );
    let mut acc = [[0.0f32; TILE_ROWS]; N];
    for (j, col) in tile.chunks_exact(TILE_ROWS).enumerate() {
        let q: [f32; N] = std::array::from_fn(|s| f32::from(queries[s][j]));
        let mut x = [0.0f32; TILE_ROWS];
        for r in 0..TILE_ROWS {
            x[r] = f32::from(col[r]);
        }
        for r in 0..TILE_ROWS {
            for s in 0..N {
                // Exact either way; without the `fma` target feature
                // `mul_add` would be a slow library call.
                acc[s][r] = if cfg!(target_feature = "fma") {
                    x[r].mul_add(q[s], acc[s][r])
                } else {
                    x[r] * q[s] + acc[s][r]
                };
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(shape: [usize; 2], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let data: Vec<f64> = (0..shape[0] * shape[1])
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(shape.to_vec(), data)
    }

    fn assert_bits_eq(x: &Tensor, y: &Tensor) {
        assert_eq!(x.shape(), y.shape());
        for (i, (a, b)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn blocked_matches_reference_on_blocky_and_ragged_shapes() {
        // Shapes straddling every tile boundary: exact multiples,
        // one-off tails in each dimension, and sub-tile sizes.
        let shapes: &[([usize; 2], [usize; 2])] = &[
            ([4, 16], [16, 16]),
            ([5, 17], [17, 19]),
            ([128, 256], [256, 32]),
            ([129, 257], [257, 33]),
            ([131, 300], [300, 47]),
            ([257, 64], [64, 17]),
            ([3, 100], [100, 100]),
            ([100, 7], [7, 100]),
        ];
        for (i, &(sa, sb)) in shapes.iter().enumerate() {
            let a = fill(sa, i as u64 + 1);
            let b = fill(sb, i as u64 + 101);
            let bt_b = fill([sb[1], sb[0]], i as u64 + 201);
            assert_bits_eq(&matmul_impl(&a, &b, false), &matmul_reference(&a, &b, false));
            assert_bits_eq(&matmul_impl(&a, &bt_b, true), &matmul_reference(&a, &bt_b, true));
        }
    }

    #[test]
    fn non_finite_values_propagate_identically() {
        let mut a = fill([40, 40], 7);
        let mut b = fill([40, 40], 8);
        a.data_mut()[3] = 0.0;
        b.data_mut()[3 * 40 + 5] = f64::INFINITY;
        a.data_mut()[41] = f64::NAN;
        b.data_mut()[100] = f64::NEG_INFINITY;
        let got = matmul_impl(&a, &b, false);
        let want = matmul_reference(&a, &b, false);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn block_dots_match_serial_folds_bit_for_bit() {
        // Every block width (including the unrolled DOT_BLOCK tile)
        // must reproduce the serial ascending-j fold exactly, element
        // order and all — on data rich in near-ties and signed zeros.
        let dim = 37;
        for nq in [1usize, 2, 5, DOT_BLOCK, 11] {
            let v = fill([1, dim], 900 + nq as u64);
            let queries = fill([nq, dim], 1000 + nq as u64);
            let mut qt = vec![0.0f64; dim * nq];
            for s in 0..nq {
                for j in 0..dim {
                    qt[j * nq + s] = queries.at(s, j);
                }
            }
            let mut acc = vec![0.0f64; nq];
            dot_block_f64(v.data(), &qt, nq, &mut acc);
            for s in 0..nq {
                let want: f64 = v.data().iter().zip(queries.row(s)).map(|(a, b)| a * b).sum();
                assert_eq!(acc[s].to_bits(), want.to_bits(), "f64 slot {s} of {nq}");
            }
        }
    }

    #[test]
    fn tiles_are_dimension_major_and_zero_padded() {
        // 3 rows of 2 in tiles of 2: [r0 r1 | r0 r1] then r2 + padding.
        let rows: [&[i32]; 3] = [&[1, 2], &[3, 4], &[5, 6]];
        assert_eq!(tile_rows(2, 3, 2, rows), [1, 3, 2, 4, 5, 0, 6, 0]);
        assert!(tile_rows::<i8, &[i8]>(TILE_ROWS, 0, 5, []).is_empty());
    }

    /// `dot_tile_i8_n::<N>` against the `i64` fold, each of the `N`
    /// query slots holding a different query, so a lane or slot mix-up
    /// changes some sum.
    fn check_tile_dots<const N: usize>(code: &mut impl FnMut() -> i8) {
        // Row counts around a tile edge, codes at both i8 extremes.
        for (n, dim) in [(1, 1), (TILE_ROWS - 1, 2), (TILE_ROWS, 9), (TILE_ROWS + 1, 33)] {
            let mut codes: Vec<i8> = (0..n * dim).map(|_| code()).collect();
            codes[0] = -128;
            let queries: Vec<Vec<i8>> = (0..N)
                .map(|s| {
                    let mut query: Vec<i8> = (0..dim).map(|_| code()).collect();
                    // Distinct leading codes, one of them −128.
                    query[0] = [-128, 127, -1, 3][s];
                    query
                })
                .collect();
            let slots: [&[i8]; N] = std::array::from_fn(|s| queries[s].as_slice());
            let tiles = tile_rows(TILE_ROWS, n, dim, codes.chunks(dim));
            assert_eq!(tiles.len(), n.div_ceil(TILE_ROWS) * TILE_ROWS * dim);
            for (t, tile) in tiles.chunks_exact(TILE_ROWS * dim).enumerate() {
                let acc = dot_tile_i8_n(tile, slots);
                for (s, (lanes, query)) in acc.iter().zip(&queries).enumerate() {
                    for (r, &got) in lanes.iter().enumerate() {
                        let i = t * TILE_ROWS + r;
                        let want: i64 = codes.get(i * dim..(i + 1) * dim).map_or(0, |row| {
                            row.iter().zip(query).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum()
                        });
                        // By bits: a zero lane must be `+0.0`, as the
                        // integer 0 converts.
                        assert_eq!(
                            f64::from(got).to_bits(),
                            (want as f64).to_bits(),
                            "N {N} slot {s} n {n} dim {dim} row {i}"
                        );
                    }
                }
            }
        }
        // The widest accepted row of −128 codes against a −128 query in
        // every slot: the largest sum an `f32` lane must hold, exactly.
        let dim = I8_EXACT_COLS;
        assert_eq!(dim, 1024);
        let query = vec![-128; dim];
        let acc = dot_tile_i8_n(&vec![-128; dim * TILE_ROWS], [query.as_slice(); N]);
        assert!(acc.iter().flatten().all(|&a| a == (1 << 24) as f32));
    }

    #[test]
    fn tile_dots_are_the_exact_integer_fold_for_every_query_count() {
        let mut state = 0x5eedu64;
        let mut code = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8 as i8
        };
        check_tile_dots::<1>(&mut code);
        check_tile_dots::<2>(&mut code);
        check_tile_dots::<3>(&mut code);
        check_tile_dots::<TILE_QUERIES>(&mut code);
    }
}
