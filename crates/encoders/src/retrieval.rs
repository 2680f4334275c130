//! Dense top-k retrieval over entity embeddings.
//!
//! Stage one of the linker is one operation: inner-product top-k over a
//! precomputed entity table. [`QueryBlock::scan`] is its one
//! implementation — score contiguous [`Rows`] against a block of
//! prepared queries, feed per-query [`TopK`] selectors. [`DenseIndex`]
//! (exact `f64`, used for evaluation: R@64 must be exact) and
//! [`QuantizedIndex`] (f16 / int8) are that scan over one list holding
//! every row; the sharded-store IVF index in `mb-store` is the same
//! scan over its centroid table and then over each probed list.
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
use mb_tensor::kernels::{dot_block_f64, dot_i8_i32, dot_i8_i64, DOT_BLOCK, I8_EXACT_I32_COLS};
use mb_tensor::quant::{f16_to_f64, quantize_i8, QuantF16, QuantI8};
use mb_tensor::{QuantMode, Tensor};
use mb_text::Vocab;

/// Queries per scan block: a table is streamed once per block instead
/// of once per query, so larger blocks amortize memory traffic while
/// the per-query accumulators stay resident in registers/L1. Blocks are
/// a fixed function of query index, so worker count never changes which
/// queries share a block. Pinned to the width the multi-accumulator
/// kernel specializes for.
const QUERY_BLOCK: usize = DOT_BLOCK;

/// Rows per cache-resident run of the int8 scan: one run of codes is
/// re-read once per member query, so it must fit comfortably in L2
/// (512 rows × 256 cols = 128 KiB worst case) while leaving the score
/// scratch long enough for the [`TopK::push_block`] pre-filter to skip
/// whole runs.
const SCORE_CHUNK: usize = 512;

/// Contiguous row-major rows the scan can score, `dim` elements each.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Exact rows.
    F64(&'a [f64]),
    /// binary16 bit patterns.
    F16(&'a [u16]),
    /// Per-row symmetric int8 codes with one dequantization scale per
    /// row.
    Int8 {
        /// `rows * dim` codes.
        codes: &'a [i8],
        /// One scale per row.
        scales: &'a [f64],
    },
}

/// One block of at most [`QUERY_BLOCK`] queries prepared once for any
/// number of scans: the rows transposed to the `[dim, nq]` layout
/// [`dot_block_f64`] streams and — quantized on the first int8 scan —
/// each query's symmetric int8 codes and scale, so int8 rows accumulate
/// exactly in integers instead of paying a per-element float
/// conversion. Also owns the scan's scratch buffers.
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
    /// One decoded f16 row.
    row: Vec<f64>,
    /// One score per member (float rows) or per run row (int8 rows).
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
            row: vec![0.0; dim],
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
    /// The two element families want opposite loop orders. Float rows
    /// are decoded once (f16; exact) and folded into one accumulator
    /// chain per member by [`dot_block_f64`] — f64 dots are latency
    /// chains a lone fold is stuck behind. Int8 rows go in runs of at
    /// most [`SCORE_CHUNK`]: per run, each member makes one contiguous
    /// [`dot_i8_i32`] pass (`i64` for absurdly wide rows) into a score
    /// scratch and offers the run through [`TopK::push_block`], whose
    /// chunk-max pre-filter skips runs that cannot enter the top-k —
    /// integer folds vectorize on their own, so a plain dot per member
    /// beats an interleaved tile.
    ///
    /// Every score is one ascending-column fold (f64: separate multiply
    /// and add; int8: the exact integer sum, then
    /// `sum as f64 * (row_scale * query_scale)`), so it depends on the
    /// row and the query alone — never on which other queries share the
    /// block or the member list. [`TopK`] is push-order independent, so
    /// rankings are too.
    pub fn scan(&mut self, rows: Rows<'_>, members: &[(usize, usize)], sels: &mut [TopK]) {
        let (dim, nq, m) = (self.queries.cols(), self.len(), members.len());
        if dim == 0 || m == 0 {
            return;
        }
        let QueryBlock { queries, range, qt, codes, scales, member_qt, row, scores } = self;
        if let Rows::Int8 { codes: rcodes, scales: rscales } = rows {
            if codes.is_empty() {
                for qi in range.clone() {
                    let (c, s) = quantize_i8(queries.row(qi));
                    codes.extend_from_slice(&c);
                    scales.push(s);
                }
            }
            if scores.len() < SCORE_CHUNK {
                scores.resize(SCORE_CHUNK, 0.0);
            }
            let narrow = dim <= I8_EXACT_I32_COLS;
            for (run, (rc, rs)) in
                rcodes.chunks(SCORE_CHUNK * dim).zip(rscales.chunks(SCORE_CHUNK)).enumerate()
            {
                let sc = &mut scores[..rs.len()];
                for &(slot, base) in members {
                    let (qc, qs) = (&codes[slot * dim..(slot + 1) * dim], scales[slot]);
                    if narrow {
                        for ((s, r), &rscale) in sc.iter_mut().zip(rc.chunks_exact(dim)).zip(rs) {
                            *s = f64::from(dot_i8_i32(r, qc)) * (rscale * qs);
                        }
                    } else {
                        for ((s, r), &rscale) in sc.iter_mut().zip(rc.chunks_exact(dim)).zip(rs) {
                            *s = dot_i8_i64(r, qc) as f64 * (rscale * qs);
                        }
                    }
                    sels[slot].push_block(base + run * SCORE_CHUNK, sc);
                }
            }
            return;
        }
        member_qt.clear();
        for qrow in qt.chunks_exact(nq) {
            member_qt.extend(members.iter().map(|&(slot, _)| qrow[slot]));
        }
        if scores.len() < m {
            scores.resize(m, 0.0);
        }
        let acc = &mut scores[..m];
        let mut offer = |pos: usize, v: &[f64]| {
            dot_block_f64(v, member_qt, m, acc);
            for (&(slot, base), &s) in members.iter().zip(acc.iter()) {
                sels[slot].push(base + pos, s);
            }
        };
        match rows {
            Rows::F64(data) => {
                for (pos, v) in data.chunks_exact(dim).enumerate() {
                    offer(pos, v);
                }
            }
            Rows::F16(bits) => {
                for (pos, halves) in bits.chunks_exact(dim).enumerate() {
                    for (d, &h) in row.iter_mut().zip(halves) {
                        *d = f16_to_f64(h);
                    }
                    offer(pos, row);
                }
            }
            Rows::Int8 { .. } => {} // scanned above
        }
    }
}

/// The frame every [`CandidateSource::top_k_batch`] shares: validate a
/// `[q, dim]` query matrix against a `dim`-wide source of `len`
/// entities, cut it into fixed [`QUERY_BLOCK`]-query blocks, rank each
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

/// Storage of a [`QuantizedIndex`].
#[derive(Debug, Clone)]
enum QuantTable {
    F16(QuantF16),
    Int8(QuantI8),
}

/// A quantized copy of a [`DenseIndex`]: same ids and ranking
/// semantics, but the entity vectors are stored as f16 or per-row
/// symmetric int8 and scored without dequantizing to a full table.
///
/// Rankings carry the bounded-error contract of [`mb_tensor::quant`]
/// rather than bit equality with the exact index; near-tie candidates
/// may swap. Scoring stays bit-identical across thread counts.
#[derive(Debug, Clone)]
pub struct QuantizedIndex {
    table: QuantTable,
    ids: Vec<EntityId>,
}

impl QuantizedIndex {
    /// Quantize an exact index. Returns `None` for
    /// [`QuantMode::Exact`] — callers keep using the [`DenseIndex`]
    /// itself in that mode.
    pub fn from_dense(index: &DenseIndex, mode: QuantMode) -> Option<Self> {
        let table = match mode {
            QuantMode::Exact => return None,
            QuantMode::F16 => QuantTable::F16(QuantF16::from_tensor(&index.vectors)),
            QuantMode::Int8 => QuantTable::Int8(QuantI8::from_tensor(&index.vectors)),
        };
        Some(QuantizedIndex { table, ids: index.ids.clone() })
    }

    /// Assemble from a prebuilt f16 table (rows aligned with `ids`) —
    /// the shard-load path: `mb-store` persists the raw table bits, so
    /// serve start-up reloads them here without re-quantizing.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when row count and id count
    /// differ.
    pub fn from_f16(table: QuantF16, ids: Vec<EntityId>) -> mb_common::Result<Self> {
        if table.rows() != ids.len() {
            return Err(mb_common::Error::shape(
                "QuantizedIndex::from_f16",
                format!("{} ids (one per row)", table.rows()),
                format!("{} ids", ids.len()),
            ));
        }
        Ok(QuantizedIndex { table: QuantTable::F16(table), ids })
    }

    /// Assemble from a prebuilt int8 table (rows aligned with `ids`) —
    /// the shard-load path, like [`QuantizedIndex::from_f16`].
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when row count and id count
    /// differ.
    pub fn from_i8(table: QuantI8, ids: Vec<EntityId>) -> mb_common::Result<Self> {
        if table.rows() != ids.len() {
            return Err(mb_common::Error::shape(
                "QuantizedIndex::from_i8",
                format!("{} ids (one per row)", table.rows()),
                format!("{} ids", ids.len()),
            ));
        }
        Ok(QuantizedIndex { table: QuantTable::Int8(table), ids })
    }

    /// Resident bytes of the stored vectors.
    pub fn bytes(&self) -> usize {
        match &self.table {
            QuantTable::F16(t) => t.bytes(),
            QuantTable::Int8(t) => t.bytes(),
        }
    }
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
        match &self.table {
            QuantTable::F16(t) => t.cols(),
            QuantTable::Int8(t) => t.cols(),
        }
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
        let rows = match &self.table {
            QuantTable::F16(t) => Rows::F16(t.bits()),
            QuantTable::Int8(t) => Rows::Int8 { codes: t.codes(), scales: t.scales() },
        };
        flat_top_k_batch(
            "QuantizedIndex::top_k_batch",
            rows,
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
        assert!(QuantizedIndex::from_dense(&exact, QuantMode::Exact).is_none());
        let exact_bytes = vectors.numel() * std::mem::size_of::<f64>();
        for (mode, shrink) in [(QuantMode::F16, 4), (QuantMode::Int8, 2)] {
            let q = QuantizedIndex::from_dense(&exact, mode).expect("quantized");
            assert_eq!(q.len(), 300);
            assert!(!q.is_empty());
            assert!(
                exact_bytes / q.bytes() >= shrink,
                "{mode:?}: {exact_bytes} vs {} bytes",
                q.bytes()
            );
            let mut rng = Rng::seed_from_u64(12);
            let query: Vec<f64> = (0..16).map(|_| rng.gaussian()).collect();
            // The top-1 has a clear margin on random normalized data, so
            // quantization noise must not flip it.
            let e = exact.top_k(&query, 1)[0].0;
            let g = q.top_k(&query, 1)[0].0;
            assert_eq!(e, g, "{mode:?} flipped a clear-margin top-1");
            // Batched retrieval is bit-identical across thread counts.
            let queries = Tensor::randn(vec![20, 16], 0.0, 1.0, &mut rng);
            let serial = q.top_k_batch(&queries, 5, mb_par::Threads::single()).expect("batch");
            for t in [2usize, 4] {
                assert_eq!(
                    q.top_k_batch(&queries, 5, mb_par::Threads::new(t)).expect("batch"),
                    serial
                );
            }
        }
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
