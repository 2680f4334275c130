//! Dense top-k retrieval over entity embeddings.
//!
//! Stage one of the linker is one operation: inner-product top-k over a
//! precomputed entity table. [`QueryBlock::scan`] is its one
//! implementation — score contiguous [`Rows`] against a block of
//! prepared queries, feed per-query [`TopK`] selectors. [`DenseIndex`]
//! (exact `f64`, used for evaluation: R@64 must be exact) and
//! [`QuantizedIndex`] (int8) are that scan over one list holding
//! every row; the sharded-store IVF index in `mb-store` is the same
//! scan over its centroid table and then over each probed list. Int8
//! rows are stored and scanned in [`TILE_ROWS`]-row dimension-major
//! tiles, so up to [`TILE_QUERIES`] queries score a tile's rows in SIMD
//! lanes per pass, and a tile's scores reach a selector only when one
//! of them can enter it ([`TopK::floor`]); `f64` rows stay row-major
//! and put the block's queries in lanes instead.
//!
//! [`CandidateSource`] is the retrieval abstraction the two-stage
//! linker scores candidates through, so the linker (and the serving
//! path behind it) can swap brute-force retrieval for approximate
//! million-entity retrieval without touching inference code.
//! Implementations must keep the workspace determinism contract:
//! `top_k_batch` is a pure function of the queries and the index, ties
//! break on the lowest candidate position, and the result is
//! bit-identical at any [`mb_par::Threads`] value and any batch
//! composition.

use crate::biencoder::BiEncoder;
use crate::input::{EntityFeatures, InputConfig};
use mb_common::util::TopK;
use mb_kb::{EntityId, KnowledgeBase};
use mb_tensor::kernels::{
    dot_block_f64, dot_tile_i8_n, tile_rows, DOT_BLOCK, I8_EXACT_COLS, TILE_QUERIES, TILE_ROWS,
};
use mb_tensor::quant::{quantize_i8, QuantI8};
use mb_tensor::Tensor;
use mb_text::Vocab;

/// Queries per scan block: a table is streamed once per block instead
/// of once per query, so larger blocks amortize memory traffic while
/// the per-query accumulators stay resident in registers/L1. Blocks are
/// a fixed function of query index, so worker count never changes which
/// queries share a block. Pinned to the width the multi-accumulator
/// kernel specializes for.
const QUERY_BLOCK: usize = DOT_BLOCK;

/// Rows per cache-resident run of the int8 scan: one run of tiles is
/// re-read once per group of up to [`TILE_QUERIES`] members, so it must
/// fit comfortably in L2 (512 rows × 256 cols = 128 KiB worst case). A
/// whole number of tiles, so a run never splits one.
const SCORE_CHUNK: usize = 512;
const _: () = assert!(SCORE_CHUNK.is_multiple_of(TILE_ROWS));

/// Contiguous rows the scan can score, `dim` elements each.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Exact rows, row-major.
    F64(&'a [f64]),
    /// Per-row symmetric int8 codes with one dequantization scale per
    /// row, at most [`I8_EXACT_COLS`] wide, so the scan's `f32` sums
    /// are exact integers.
    Int8 {
        /// The codes in [`TILE_ROWS`]-row dimension-major tiles
        /// ([`tile_rows`]), the last one zero-padded:
        /// `scales.len().div_ceil(TILE_ROWS) * TILE_ROWS * dim` codes.
        tiles: &'a [i8],
        /// One scale per real row; padded rows have none and are never
        /// offered to a selector.
        scales: &'a [f64],
    },
}

/// One block of at most `QUERY_BLOCK` queries prepared once for any
/// number of scans: the rows transposed to the `[dim, nq]` layout
/// [`dot_block_f64`] streams and — quantized on the first int8 scan —
/// each query's symmetric int8 codes and scale, so int8 rows accumulate
/// exact integer sums, scaled once per row, instead of dequantizing
/// every element. Also owns the scan's scratch buffers.
pub struct QueryBlock<'a> {
    queries: &'a Tensor,
    range: std::ops::Range<usize>,
    /// `[dim, nq]` row-major.
    qt: Vec<f64>,
    /// `[nq, dim]` int8 codes; empty until an int8 scan.
    codes: Vec<i8>,
    /// One query scale per slot, alongside `codes`.
    scales: Vec<f64>,
    /// `[dim, members]` gather of `qt` for the scan in flight.
    member_qt: Vec<f64>,
    /// One score per member (`f64` rows).
    scores: Vec<f64>,
}

impl<'a> QueryBlock<'a> {
    fn new(queries: &'a Tensor, range: std::ops::Range<usize>) -> QueryBlock<'a> {
        let (dim, nq) = (queries.cols(), range.len());
        let mut qt = vec![0.0f64; dim * nq];
        for (slot, qi) in range.clone().enumerate() {
            for (j, &x) in queries.row(qi).iter().enumerate() {
                qt[j * nq + slot] = x;
            }
        }
        QueryBlock {
            queries,
            range,
            qt,
            codes: Vec::new(),
            scales: Vec::new(),
            member_qt: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Queries in this block.
    fn len(&self) -> usize {
        self.range.len()
    }

    /// The member list "every query, candidates numbered from 0" — a
    /// flat table, or an IVF centroid table.
    pub fn every_query(&self) -> Vec<(usize, usize)> {
        (0..self.len()).map(|slot| (slot, 0)).collect()
    }

    /// One empty selector per query.
    pub fn selectors(&self, k: usize) -> Vec<TopK> {
        (0..self.len()).map(|_| TopK::new(k)).collect()
    }

    /// Score every row of `rows` against each `(query slot, base)`
    /// member and offer row `pos` to `sels[slot]` as candidate
    /// `base + pos`.
    ///
    /// The two element types put different things in SIMD lanes. `f64`
    /// rows are folded into one accumulator chain per member by
    /// [`dot_block_f64`] — the block's queries sit in lanes, because
    /// f64 dots are latency chains a lone fold is stuck behind. Int8
    /// rows sit in lanes themselves: they are stored in
    /// [`TILE_ROWS`]-row dimension-major tiles, and [`dot_tile_i8_n`]
    /// scores a whole tile for up to [`TILE_QUERIES`] members at once
    /// with vertical multiply-adds, each member's sums in registers of
    /// its own, and no horizontal reduction. They go in runs of at most
    /// `SCORE_CHUNK` rows, and per run the members go in groups of up
    /// to [`TILE_QUERIES`], the kernel instantiated for the group's
    /// length, so a lone member pays for one query. Per tile, each
    /// member's real rows (never the padding) are scaled in a stack
    /// array and offered to its selector only when one of them is `>=`
    /// [`TopK::floor`] — an exact test, so most tiles never touch the
    /// heap.
    ///
    /// Every score is one ascending-column fold (f64: separate multiply
    /// and add; int8: the exact integer sum, held in `f32`, then
    /// `sum as f64 * (row_scale * query_scale)`), so it depends on the
    /// row and the query alone — never on which other queries share the
    /// block, the member list or the row's tile. [`TopK`] is push-order
    /// independent, so rankings are too.
    pub fn scan(&mut self, rows: Rows<'_>, members: &[(usize, usize)], sels: &mut [TopK]) {
        let (dim, nq, m) = (self.queries.cols(), self.len(), members.len());
        if dim == 0 || m == 0 {
            return;
        }
        let QueryBlock { queries, range, qt, codes, scales, member_qt, scores } = self;
        let data = match rows {
            Rows::F64(data) => data,
            Rows::Int8 { tiles, scales: rscales } => {
                debug_assert_eq!(tiles.len(), rscales.len().div_ceil(TILE_ROWS) * TILE_ROWS * dim);
                if codes.is_empty() {
                    for qi in range.clone() {
                        let (c, s) = quantize_i8(queries.row(qi));
                        codes.extend_from_slice(&c);
                        scales.push(s);
                    }
                }
                for (run, (rt, rs)) in
                    tiles.chunks(SCORE_CHUNK * dim).zip(rscales.chunks(SCORE_CHUNK)).enumerate()
                {
                    for group in members.chunks(TILE_QUERIES) {
                        // One instantiation per group length 1..=TILE_QUERIES.
                        const _: () = assert!(TILE_QUERIES == 4);
                        let scan_group = match group.len() {
                            1 => scan_i8_group::<1>,
                            2 => scan_i8_group::<2>,
                            3 => scan_i8_group::<3>,
                            _ => scan_i8_group::<4>,
                        };
                        scan_group(rt, rs, run * SCORE_CHUNK, group, codes, scales, sels);
                    }
                }
                return;
            }
        };
        member_qt.clear();
        for qrow in qt.chunks_exact(nq) {
            member_qt.extend(members.iter().map(|&(slot, _)| qrow[slot]));
        }
        if scores.len() < m {
            scores.resize(m, 0.0);
        }
        let acc = &mut scores[..m];
        for (pos, v) in data.chunks_exact(dim).enumerate() {
            dot_block_f64(v, member_qt, m, acc);
            for (&(slot, base), &s) in members.iter().zip(acc.iter()) {
                sels[slot].push(base + pos, s);
            }
        }
    }
}

/// One int8 run of `tiles` (its rows' scales in `rscales`, its first
/// row at position `first`) scored for a group of `N` members against
/// the block's `[nq, dim]` query `codes` and per-query `qscales`.
fn scan_i8_group<const N: usize>(
    tiles: &[i8],
    rscales: &[f64],
    first: usize,
    group: &[(usize, usize)],
    codes: &[i8],
    qscales: &[f64],
    sels: &mut [TopK],
) {
    debug_assert_eq!(group.len(), N, "scan_i8_group: group length");
    let dim = codes.len() / qscales.len();
    let queries: [&[i8]; N] = std::array::from_fn(|s| &codes[group[s].0 * dim..][..dim]);
    let per_tile = tiles.chunks_exact(TILE_ROWS * dim).zip(rscales.chunks(TILE_ROWS));
    for (t, (tile, ts)) in per_tile.enumerate() {
        let acc = dot_tile_i8_n(tile, queries);
        // Padding rows get a NaN scale, so a NaN score: never `>=` a
        // floor, never offered.
        let mut rsc = [f64::NAN; TILE_ROWS];
        rsc[..ts.len()].copy_from_slice(ts);
        for (&(slot, base), acc) in group.iter().zip(&acc) {
            let (qs, sel) = (qscales[slot], &mut sels[slot]);
            let mut floor = sel.floor();
            let mut sc = [0.0; TILE_ROWS];
            let mut hit = false;
            for r in 0..TILE_ROWS {
                sc[r] = f64::from(acc[r]) * (rsc[r] * qs);
                hit |= sc[r] >= floor;
            }
            if hit {
                let at = base + first + t * TILE_ROWS;
                for (r, &s) in sc.iter().enumerate() {
                    if s >= floor {
                        sel.push(at + r, s);
                        floor = sel.floor();
                    }
                }
            }
        }
    }
}

/// The frame every [`CandidateSource::top_k_batch`] shares: validate a
/// `[q, dim]` query matrix against a `dim`-wide source of `len`
/// entities, cut it into fixed `QUERY_BLOCK`-query blocks, rank each
/// block with `rank` — blocks fan out across `threads`, each query
/// wholly within one worker — and concatenate in query order.
///
/// # Errors
/// [`mb_common::Error::ShapeMismatch`] when `queries` is not rank-2 or
/// its width disagrees with a non-empty source; an empty source accepts
/// any width (it returns empty rankings).
pub fn top_k_blocks<F>(
    op: &'static str,
    queries: &Tensor,
    dim: usize,
    len: usize,
    threads: mb_par::Threads,
    rank: F,
) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>>
where
    F: Fn(&mut QueryBlock<'_>) -> Vec<Vec<(EntityId, f64)>> + Sync,
{
    if queries.rank() != 2 {
        return Err(mb_common::Error::shape(
            op,
            "[q, dim] queries",
            format!("rank-{} tensor {:?}", queries.rank(), queries.shape()),
        ));
    }
    if len > 0 && queries.rows() > 0 && queries.cols() != dim {
        return Err(mb_common::Error::shape(
            op,
            format!("query dim {dim}"),
            format!("query dim {}", queries.cols()),
        ));
    }
    let blocks = mb_par::par_chunk_ranges(threads, queries.rows(), QUERY_BLOCK, |_, range| {
        rank(&mut QueryBlock::new(queries, range))
    });
    Ok(blocks.into_iter().flatten().collect())
}

/// A flat index is the scan over one list holding every row.
fn flat_top_k_batch(
    op: &'static str,
    rows: Rows<'_>,
    dim: usize,
    ids: &[EntityId],
    queries: &Tensor,
    k: usize,
    threads: mb_par::Threads,
) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
    top_k_blocks(op, queries, dim, ids.len(), threads, |block| {
        let mut sels = block.selectors(k.min(ids.len()));
        block.scan(rows, &block.every_query(), &mut sels);
        sels.into_iter()
            .map(|sel| sel.into_sorted().into_iter().map(|(i, s)| (ids[i], s)).collect())
            .collect()
    })
}

/// A source of scored entity candidates for a query embedding — the
/// retrieval stage the two-stage linker is generic over.
///
/// Contract (DESIGN.md §14): rankings are best-first with a
/// deterministic lowest-position tie-break and a pure function of
/// (query, source) — bit-identical at any worker count and any batch
/// composition; `len`/`dim` describe the indexed table; `find_id`
/// visits the entity ids a search can return, so a caller can validate
/// the source against its knowledge base and feature table once, up
/// front.
pub trait CandidateSource: Send + Sync {
    /// Number of indexed entities.
    fn len(&self) -> usize;

    /// True if nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed vectors.
    fn dim(&self) -> usize;

    /// The first entity id a search can return that `reject` holds
    /// for, `None` when it holds for none of them.
    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId>;

    /// Top-k candidates, best first, for every row of a `[q, dim]`
    /// query matrix, with fixed query blocks split across workers.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `queries` is not rank-2
    /// or its width disagrees with a non-empty index — the serving path
    /// reports this as a failed request instead of aborting.
    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>>;

    /// Top-k candidates for one query: a one-row
    /// [`CandidateSource::top_k_batch`].
    ///
    /// # Panics
    /// Panics when `query` is not `dim` wide (and the source is not
    /// empty); callers holding untrusted queries use `top_k_batch`.
    fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        let row = Tensor::from_vec(vec![1, query.len()], query.to_vec());
        let mut ranked = self
            .top_k_batch(&row, k, mb_par::Threads::single())
            .unwrap_or_else(|e| panic!("CandidateSource::top_k: {e}"));
        ranked.pop().unwrap_or_default()
    }
}

/// Exact brute-force dense index.
#[derive(Debug, Clone)]
pub struct DenseIndex {
    vectors: Tensor,
    ids: Vec<EntityId>,
}

impl DenseIndex {
    /// Build from precomputed vectors (rows aligned with `ids`),
    /// rejecting misaligned inputs. This is the server-facing
    /// constructor: a serving process must degrade to an error
    /// response, not abort, when handed a malformed entity table.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when row count and id count
    /// differ, or the vectors are not a rank-2 tensor.
    pub fn try_from_vectors(vectors: Tensor, ids: Vec<EntityId>) -> mb_common::Result<Self> {
        if vectors.rank() != 2 {
            return Err(mb_common::Error::shape(
                "DenseIndex::try_from_vectors",
                "[n, d] vectors",
                format!("rank-{} tensor {:?}", vectors.rank(), vectors.shape()),
            ));
        }
        if vectors.rows() != ids.len() {
            return Err(mb_common::Error::shape(
                "DenseIndex::try_from_vectors",
                format!("{} ids (one per row)", vectors.rows()),
                format!("{} ids", ids.len()),
            ));
        }
        Ok(DenseIndex { vectors, ids })
    }

    /// Embed and index a set of entities with a bi-encoder.
    ///
    /// # Panics
    /// Panics when an id is outside `kb`; callers handling untrusted
    /// dictionaries use [`DenseIndex::try_build`].
    pub fn build(
        model: &BiEncoder,
        vocab: &Vocab,
        cfg: &InputConfig,
        kb: &KnowledgeBase,
        ids: &[EntityId],
    ) -> Self {
        Self::try_build(model, vocab, cfg, kb, ids)
            .expect("dictionary ids inside the knowledge base")
    }

    /// Embed and index a set of entities, rejecting ids outside the
    /// knowledge base instead of panicking mid-embed — the serving and
    /// loadgen constructor, where a malformed dictionary must surface
    /// as a typed error.
    ///
    /// # Errors
    /// [`mb_common::Error::NotFound`] when any id is outside `kb`.
    pub fn try_build(
        model: &BiEncoder,
        vocab: &Vocab,
        cfg: &InputConfig,
        kb: &KnowledgeBase,
        ids: &[EntityId],
    ) -> mb_common::Result<Self> {
        Self::from_features(model, &EntityFeatures::try_build(vocab, cfg, kb, ids)?, ids)
    }

    /// Embed and index `ids` from an already-built feature table, so a
    /// caller that keeps the table (the linker, a served generation)
    /// featurises its dictionary exactly once.
    ///
    /// # Errors
    /// [`mb_common::Error::NotFound`] when `features` does not cover
    /// an id.
    pub fn from_features(
        model: &BiEncoder,
        features: &EntityFeatures,
        ids: &[EntityId],
    ) -> mb_common::Result<Self> {
        let bags = ids
            .iter()
            .map(|&id| {
                features.entity(id).map(<[u32]>::to_vec).ok_or_else(|| {
                    mb_common::Error::NotFound(format!(
                        "dictionary entity {} outside the entity feature table",
                        id.0
                    ))
                })
            })
            .collect::<mb_common::Result<Vec<Vec<u32>>>>()?;
        Ok(DenseIndex { vectors: model.embed_entities(&bags), ids: ids.to_vec() })
    }

    /// The indexed ids in row order.
    pub fn ids(&self) -> &[EntityId] {
        &self.ids
    }
}

/// A quantized copy of a [`DenseIndex`]: same ids and ranking
/// semantics, but the entity vectors are stored as per-row symmetric
/// int8 and scored without dequantizing to a full table.
///
/// Rankings carry the bounded-error contract of [`mb_tensor::quant`]
/// rather than bit equality with the exact index; near-tie candidates
/// may swap. Scoring stays bit-identical across thread counts.
#[derive(Debug, Clone)]
pub struct QuantizedIndex {
    dim: usize,
    /// The codes in [`TILE_ROWS`]-row tiles, the layout [`Rows::Int8`]
    /// scans; they replace the row-major [`QuantI8`] codes they are
    /// built from.
    tiles: Vec<i8>,
    /// One scale per row.
    scales: Vec<f64>,
    ids: Vec<EntityId>,
}

impl QuantizedIndex {
    /// Quantize an exact index row by row, as [`QuantI8::from_tensor`]
    /// does, straight into scan tiles: no row-major table is built
    /// beside them.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when the vectors are wider
    /// than [`I8_EXACT_COLS`].
    pub fn from_dense(index: &DenseIndex) -> mb_common::Result<Self> {
        let vectors = &index.vectors;
        let (n, dim) = (vectors.rows(), vectors.cols());
        check_i8_width("QuantizedIndex::from_dense", dim)?;
        let mut scales = Vec::with_capacity(n);
        let codes = (0..n).map(|i| {
            let (codes, scale) = quantize_i8(vectors.row(i));
            scales.push(scale);
            codes
        });
        let tiles = tile_rows(TILE_ROWS, n, dim, codes);
        Ok(QuantizedIndex { dim, tiles, scales, ids: index.ids.clone() })
    }

    /// Assemble from prebuilt int8 tables, their rows concatenated in
    /// order and aligned with `ids` — the shard-load path: `mb-store`
    /// passes every shard's table, and the codes are gathered straight
    /// into scan tiles, so serve start-up neither re-quantizes nor
    /// holds a row-major copy.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when the tables differ in
    /// width, are wider than [`I8_EXACT_COLS`], or hold a row count
    /// other than the id count.
    pub fn from_i8<'t>(
        tables: impl IntoIterator<Item = &'t QuantI8>,
        ids: Vec<EntityId>,
    ) -> mb_common::Result<Self> {
        const OP: &str = "QuantizedIndex::from_i8";
        let tables: Vec<&QuantI8> = tables.into_iter().collect();
        let dim = tables.first().map_or(0, |t| t.cols());
        if let Some(t) = tables.iter().find(|t| t.cols() != dim) {
            return Err(mb_common::Error::shape(
                OP,
                format!("{dim} columns in every table"),
                format!("a {}-column table", t.cols()),
            ));
        }
        check_i8_width(OP, dim)?;
        let rows: usize = tables.iter().map(|t| t.rows()).sum();
        if rows != ids.len() {
            return Err(mb_common::Error::shape(
                OP,
                format!("{rows} ids (one per row)"),
                format!("{} ids", ids.len()),
            ));
        }
        let codes = tables.iter().flat_map(|t| t.codes().chunks(dim.max(1)));
        let tiles = tile_rows(TILE_ROWS, rows, dim, codes);
        let mut scales = Vec::with_capacity(rows);
        for t in &tables {
            scales.extend_from_slice(t.scales());
        }
        Ok(QuantizedIndex { dim, tiles, scales, ids })
    }

    /// Resident bytes of the stored vectors.
    pub fn bytes(&self) -> usize {
        self.tiles.len() + std::mem::size_of_val(self.scales.as_slice())
    }
}

/// The int8 scan sums in `f32`, exact only up to [`I8_EXACT_COLS`]
/// columns: a wider table is rejected rather than left to round a
/// score.
fn check_i8_width(op: &'static str, dim: usize) -> mb_common::Result<()> {
    if dim > I8_EXACT_COLS {
        return Err(mb_common::Error::shape(
            op,
            format!("at most {I8_EXACT_COLS} int8 columns"),
            format!("{dim} columns"),
        ));
    }
    Ok(())
}

impl CandidateSource for DenseIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.vectors.cols()
    }

    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId> {
        self.ids.iter().copied().find(|&id| reject(id))
    }

    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        let rows = Rows::F64(self.vectors.data());
        flat_top_k_batch(
            "DenseIndex::top_k_batch",
            rows,
            self.dim(),
            &self.ids,
            queries,
            k,
            threads,
        )
    }
}

impl CandidateSource for QuantizedIndex {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId> {
        self.ids.iter().copied().find(|&id| reject(id))
    }

    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        flat_top_k_batch(
            "QuantizedIndex::top_k_batch",
            Rows::Int8 { tiles: &self.tiles, scales: &self.scales },
            self.dim(),
            &self.ids,
            queries,
            k,
            threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::Rng;

    fn random_index(n: usize, d: usize, seed: u64) -> (Tensor, Vec<EntityId>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut vectors = Tensor::randn(vec![n, d], 0.0, 1.0, &mut rng);
        // L2-normalize rows, as the bi-encoder would.
        for i in 0..n {
            let norm: f64 = vectors.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            for v in vectors.row_mut(i) {
                *v /= norm;
            }
        }
        let ids = (0..n as u32).map(EntityId).collect();
        (vectors, ids)
    }

    #[test]
    fn top_k_matches_naive_sort() {
        let (vectors, ids) = random_index(200, 8, 1);
        let index = DenseIndex::try_from_vectors(vectors.clone(), ids).expect("one id per row");
        let mut rng = Rng::seed_from_u64(2);
        let query: Vec<f64> = (0..8).map(|_| rng.gaussian()).collect();
        let got = index.top_k(&query, 10);
        let scores: Vec<f64> =
            (0..200).map(|i| vectors.row(i).iter().zip(&query).map(|(a, b)| a * b).sum()).collect();
        let mut order: Vec<usize> = (0..200).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        for (rank, (id, s)) in got.iter().enumerate() {
            assert_eq!(id.0 as usize, order[rank]);
            assert_eq!(s.to_bits(), scores[order[rank]].to_bits());
        }
    }

    #[test]
    fn top_k_caps_at_len() {
        let (vectors, ids) = random_index(5, 4, 3);
        let index = DenseIndex::try_from_vectors(vectors, ids).expect("one id per row");
        let got = index.top_k(&[1.0, 0.0, 0.0, 0.0], 64);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn quantized_index_agrees_with_exact_on_clear_margins() {
        let (vectors, ids) = random_index(300, 16, 11);
        let exact =
            DenseIndex::try_from_vectors(vectors.clone(), ids.clone()).expect("one id per row");
        let exact_bytes = vectors.numel() * std::mem::size_of::<f64>();
        let q = QuantizedIndex::from_dense(&exact).expect("narrow");
        assert_eq!(q.len(), 300);
        assert!(!q.is_empty());
        assert!(exact_bytes / q.bytes() >= 2, "{exact_bytes} vs {} bytes", q.bytes());
        let mut rng = Rng::seed_from_u64(12);
        let query: Vec<f64> = (0..16).map(|_| rng.gaussian()).collect();
        // The top-1 has a clear margin on random normalized data, so
        // quantization noise must not flip it.
        let e = exact.top_k(&query, 1)[0].0;
        let g = q.top_k(&query, 1)[0].0;
        assert_eq!(e, g, "int8 flipped a clear-margin top-1");
        // Batched retrieval is bit-identical across thread counts.
        let queries = Tensor::randn(vec![20, 16], 0.0, 1.0, &mut rng);
        let serial = q.top_k_batch(&queries, 5, mb_par::Threads::single()).expect("batch");
        for t in [2usize, 4] {
            assert_eq!(q.top_k_batch(&queries, 5, mb_par::Threads::new(t)).expect("batch"), serial);
        }
    }

    #[test]
    fn int8_tables_wider_than_the_exact_scan_are_rejected() {
        // The literal bound, so a silent change to the constant fails:
        // 2^24 / 2^14 columns keep every f32 partial sum exact.
        let widest = 1024;
        assert_eq!(I8_EXACT_COLS, widest);
        for (cols, fits) in [(widest, true), (widest + 1, false)] {
            let table = QuantI8::from_raw(1, cols, vec![-128; cols], vec![1.0]).expect("parts");
            let got = QuantizedIndex::from_i8([&table], vec![EntityId(0)]);
            assert_eq!(got.is_ok(), fits, "{cols} columns");
            if let Err(e) = got {
                assert!(matches!(e, mb_common::Error::ShapeMismatch { .. }), "got {e:?}");
            }
            let dense =
                DenseIndex::try_from_vectors(Tensor::zeros(vec![1, cols]), vec![EntityId(0)])
                    .expect("one id per row");
            let int8 = QuantizedIndex::from_dense(&dense);
            assert_eq!(int8.is_ok(), fits, "{cols} columns");
            if let Err(e) = int8 {
                assert!(matches!(e, mb_common::Error::ShapeMismatch { .. }), "got {e:?}");
            }
        }
        // The widest table of −128 codes against a −127 query scores
        // the exact product, not a rounded one.
        let table = QuantI8::from_raw(1, widest, vec![-128; widest], vec![1.0]).expect("parts");
        let index = QuantizedIndex::from_i8([&table], vec![EntityId(0)]).expect("fits");
        let query = vec![-1.0; widest];
        let (_, qscale) = quantize_i8(&query);
        let want = (widest as f64 * 128.0 * 127.0) * (1.0 * qscale);
        assert_eq!(index.top_k(&query, 1)[0].1.to_bits(), want.to_bits());
    }

    #[test]
    fn try_from_vectors_is_fallible() {
        let (vectors, ids) = random_index(10, 4, 9);
        let index = DenseIndex::try_from_vectors(vectors.clone(), ids).expect("aligned");
        assert_eq!(index.len(), 10);
        assert_eq!(index.dim(), 4);
        let err = DenseIndex::try_from_vectors(vectors, vec![EntityId(0)]).unwrap_err();
        assert!(
            matches!(err, mb_common::Error::ShapeMismatch { .. }),
            "expected ShapeMismatch, got {err:?}"
        );
    }
}
