//! Dense top-k retrieval over entity embeddings.
//!
//! [`DenseIndex`] is the exact brute-force index used for evaluation
//! (R@64 must be exact). [`PartitionedIndex`] is an IVF-style
//! approximate index (k-means partitions, probe the nearest few) used
//! by the retrieval-latency micro-benchmarks to show the usual
//! recall/latency trade-off at larger entity counts.
//!
//! [`CandidateSource`] is the retrieval abstraction the two-stage
//! linker scores candidates through: every index here implements it,
//! as does the sharded-store IVF index in `mb-store`, so the linker
//! (and the serving path behind it) can swap brute-force retrieval for
//! approximate million-entity retrieval without touching inference
//! code. Implementations must keep the workspace determinism contract:
//! `top_k` is a pure function of the query and the index, ties break
//! on the lowest candidate position, and `top_k_batch` is bit-identical
//! at any [`mb_par::Threads`] value.

use crate::biencoder::BiEncoder;
use crate::input::{EntityFeatures, InputConfig};
use mb_common::util::{top_k_desc, TopK};
use mb_common::Rng;
use mb_kb::{EntityId, KnowledgeBase};
use mb_tensor::kernels::{dot_block_f64, dot_i8_i32, dot_i8_i64, DOT_BLOCK, I8_EXACT_I32_COLS};
use mb_tensor::quant::{f16_to_f64, quantize_i8, QuantF16, QuantI8};
use mb_tensor::{QuantMode, Tensor};
use mb_text::Vocab;

/// Queries per fused scoring block: the entity table is streamed once
/// per block instead of once per query, so larger blocks amortize
/// memory traffic while the per-query accumulators stay resident in
/// registers/L1. Blocks are a fixed function of query index, so worker
/// count never changes which queries share a block. Pinned to the
/// width the multi-accumulator kernels specialize for.
const QUERY_BLOCK: usize = DOT_BLOCK;

/// Rows per cache-resident scoring chunk in the row-outer int8 path:
/// one chunk of codes is re-read once per query in the block, so it
/// must fit comfortably in L2 (512 rows × 256 cols = 128 KiB worst
/// case) while leaving the score scratch long enough for the
/// [`TopK::push_block`] pre-filter to skip whole runs.
const SCORE_CHUNK: usize = 512;

/// Transpose one block of query rows to `[dim, nq]` row-major — the
/// layout the `dot_block_*` kernels stream.
fn transpose_block(queries: &Tensor, range: &std::ops::Range<usize>) -> Vec<f64> {
    let nq = range.len();
    let dim = queries.cols();
    let mut qt = vec![0.0f64; dim * nq];
    for (qslot, qi) in range.clone().enumerate() {
        for (j, &x) in queries.row(qi).iter().enumerate() {
            qt[j * nq + qslot] = x;
        }
    }
    qt
}

/// Validate a `[q, dim]` query matrix against an index, returning the
/// typed error the serve-reachable batched retrieval paths report
/// instead of panicking. An empty index accepts any query width (it
/// returns empty rankings), matching the serial path which never scores.
fn check_queries(
    op: &'static str,
    queries: &Tensor,
    dim: usize,
    index_len: usize,
) -> mb_common::Result<()> {
    if queries.rank() != 2 {
        return Err(mb_common::Error::shape(
            op,
            "[q, dim] queries",
            format!("rank-{} tensor {:?}", queries.rank(), queries.shape()),
        ));
    }
    if index_len > 0 && queries.rows() > 0 && queries.cols() != dim {
        return Err(mb_common::Error::shape(
            op,
            format!("query dim {dim}"),
            format!("query dim {}", queries.cols()),
        ));
    }
    Ok(())
}

/// A source of scored entity candidates for a query embedding — the
/// retrieval stage the two-stage linker is generic over.
///
/// Contract (DESIGN.md §14): `top_k` returns candidates best-first with
/// a deterministic lowest-position tie-break, `len`/`dim` describe the
/// indexed table, `find_id` visits the entity ids a search can return
/// (so a caller can validate the source against its knowledge base and
/// feature table once, up front), and `top_k_batch` must be
/// bit-identical at any worker count.
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

    /// Top-k candidates for one query, best first.
    fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)>;

    /// Top-k retrieval for every row of a `[q, dim]` query matrix, with
    /// queries split across workers; bit-identical to per-query
    /// [`CandidateSource::top_k`] at any [`mb_par::Threads`] value
    /// (each query's ranking is computed wholly within one worker).
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
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        check_queries("CandidateSource::top_k_batch", queries, self.dim(), self.len())?;
        Ok(mb_par::par_map_range(threads, queries.rows(), |i| self.top_k(queries.row(i), k)))
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

    /// Build from precomputed vectors (rows aligned with `ids`).
    ///
    /// Panicking convenience for tests and benches; production callers
    /// (the serving path) use [`DenseIndex::try_from_vectors`].
    ///
    /// # Panics
    /// Panics if row count and id count differ.
    pub fn from_vectors(vectors: Tensor, ids: Vec<EntityId>) -> Self {
        let (rows, n_ids) = (vectors.rows(), ids.len());
        DenseIndex::try_from_vectors(vectors, ids)
            .unwrap_or_else(|_| panic!("DenseIndex: {rows} rows vs {n_ids} ids"))
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
        Ok(DenseIndex { vectors: model.embed_entities(bags), ids: ids.to_vec() })
    }

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed ids in row order.
    pub fn ids(&self) -> &[EntityId] {
        &self.ids
    }

    /// Exact top-k by dot product, descending.
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        let scores = self.score_all(query);
        top_k_desc(&scores, k).into_iter().map(|i| (self.ids[i], scores[i])).collect()
    }

    /// Fused top-k retrieval for every row of a `[q, dim]` query
    /// matrix: queries are grouped into fixed blocks of [`QUERY_BLOCK`]
    /// and each entity row is streamed once per block, scored against
    /// every query in the block, and fed straight into per-query
    /// streaming [`TopK`] selectors — no per-query score array.
    ///
    /// Bit-identical to per-query [`DenseIndex::top_k`]: each dot
    /// product visits elements in the same order as
    /// [`DenseIndex::score_all`], candidates arrive in ascending row
    /// order, and [`TopK`] keeps exactly the set and order of
    /// [`top_k_desc`]. Blocks are a fixed function of query index and
    /// each query's ranking is computed wholly within one worker, so
    /// the result is bit-identical for any [`mb_par::Threads`] value.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `queries` is not rank-2
    /// or its width disagrees with a non-empty index.
    pub fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        check_queries("DenseIndex::top_k_batch", queries, self.dim(), self.len())?;
        let blocks = mb_par::par_chunk_ranges(threads, queries.rows(), QUERY_BLOCK, |_, range| {
            let nq = range.len();
            let qt = transpose_block(queries, &range);
            let mut sels: Vec<TopK> = (0..nq).map(|_| TopK::new(k.min(self.len()))).collect();
            let mut acc = vec![0.0f64; nq];
            for i in 0..self.vectors.rows() {
                dot_block_f64(self.vectors.row(i), &qt, nq, &mut acc);
                for (sel, &s) in sels.iter_mut().zip(&acc) {
                    sel.push(i, s);
                }
            }
            sels.into_iter()
                .map(|sel| sel.into_sorted().into_iter().map(|(i, s)| (self.ids[i], s)).collect())
                .collect::<Vec<Vec<(EntityId, f64)>>>()
        });
        Ok(blocks.into_iter().flatten().collect())
    }

    /// Dot product of the query against every indexed vector.
    pub fn score_all(&self, query: &[f64]) -> Vec<f64> {
        assert_eq!(
            query.len(),
            self.vectors.cols(),
            "query dim {} vs index dim {}",
            query.len(),
            self.vectors.cols()
        );
        (0..self.vectors.rows())
            .map(|i| self.vectors.row(i).iter().zip(query).map(|(a, b)| a * b).sum())
            .collect()
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

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the stored vectors.
    pub fn dim(&self) -> usize {
        match &self.table {
            QuantTable::F16(t) => t.cols(),
            QuantTable::Int8(t) => t.cols(),
        }
    }

    /// The indexed ids in row order.
    pub fn ids(&self) -> &[EntityId] {
        &self.ids
    }

    /// Resident bytes of the stored vectors.
    pub fn bytes(&self) -> usize {
        match &self.table {
            QuantTable::F16(t) => t.bytes(),
            QuantTable::Int8(t) => t.bytes(),
        }
    }

    /// Quantized dot product of the query against every stored vector.
    pub fn score_all(&self, query: &[f64], threads: mb_par::Threads) -> Vec<f64> {
        match &self.table {
            QuantTable::F16(t) => t.score_all(query, threads),
            QuantTable::Int8(t) => t.score_all(query, threads),
        }
    }

    /// Top-k by quantized dot product, descending (deterministic
    /// lowest-index tie-break, like [`DenseIndex::top_k`]).
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        let scores = self.score_all(query, mb_par::Threads::single());
        top_k_desc(&scores, k).into_iter().map(|i| (self.ids[i], scores[i])).collect()
    }

    /// Fused top-k retrieval for every row of a `[q, dim]` query
    /// matrix, blocked like [`DenseIndex::top_k_batch`]: each stored
    /// row is decoded (f16) or loaded (int8) once per [`QUERY_BLOCK`]
    /// queries, and int8 queries are quantized once per block instead
    /// of once per row scan. Bit-identical to per-query
    /// [`QuantizedIndex::top_k`] at any [`mb_par::Threads`] value: the
    /// per-element products and the ascending-column fold match the
    /// `mb_tensor` scoring kernels exactly (f16 decode is exact, and
    /// the int8 path accumulates the same exact integer).
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `queries` is not rank-2
    /// or its width disagrees with a non-empty index.
    pub fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        check_queries("QuantizedIndex::top_k_batch", queries, self.dim(), self.len())?;
        let blocks =
            mb_par::par_chunk_ranges(threads, queries.rows(), QUERY_BLOCK, |_, range| match &self
                .table
            {
                QuantTable::F16(t) => self.block_f16(t, queries, range, k),
                QuantTable::Int8(t) => self.block_i8(t, queries, range, k),
            });
        Ok(blocks.into_iter().flatten().collect())
    }

    /// Rank one query block against an f16 table. Each row is decoded
    /// into a scratch buffer once and scored against the transposed
    /// query block with one multi-accumulator pass; `f16_to_f64` is
    /// exact, so `decoded[j] * q[j]` is the same product, in the same
    /// order, as the kernel's fused decode-and-multiply.
    fn block_f16(
        &self,
        t: &QuantF16,
        queries: &Tensor,
        range: std::ops::Range<usize>,
        k: usize,
    ) -> Vec<Vec<(EntityId, f64)>> {
        let cols = t.cols();
        let bits = t.bits();
        let nq = range.len();
        let qt = transpose_block(queries, &range);
        let mut sels: Vec<TopK> = (0..nq).map(|_| TopK::new(k.min(self.len()))).collect();
        let mut decoded = vec![0.0f64; cols];
        let mut acc = vec![0.0f64; nq];
        for i in 0..t.rows() {
            for (d, &h) in decoded.iter_mut().zip(&bits[i * cols..(i + 1) * cols]) {
                *d = f16_to_f64(h);
            }
            dot_block_f64(&decoded, &qt, nq, &mut acc);
            for (sel, &s) in sels.iter_mut().zip(&acc) {
                sel.push(i, s);
            }
        }
        self.collect_sels(sels)
    }

    /// Rank one query block against an int8 table, in row chunks small
    /// enough to stay cache-resident across the per-query passes: for
    /// each chunk, each query makes one contiguous [`dot_i8_i32`] pass
    /// (or the `i64` fallback for absurdly wide rows) into a score
    /// scratch, then offers the whole run to its selector via
    /// [`TopK::push_block`], whose chunk-max pre-filter skips runs that
    /// cannot enter the top-k. Queries are quantized once per block;
    /// products accumulate exactly, so the integer sum — and therefore
    /// the final `acc as f64 * (row_scale * query_scale)` — is
    /// bit-identical to the serial scoring kernel's fold, and the
    /// candidate indices arrive in the same ascending order.
    fn block_i8(
        &self,
        t: &QuantI8,
        queries: &Tensor,
        range: std::ops::Range<usize>,
        k: usize,
    ) -> Vec<Vec<(EntityId, f64)>> {
        let cols = t.cols();
        let codes = t.codes();
        let scales = t.scales();
        let preps: Vec<(Vec<i8>, f64)> =
            range.clone().map(|qi| quantize_i8(queries.row(qi))).collect();
        let mut sels: Vec<TopK> = (0..range.len()).map(|_| TopK::new(k.min(self.len()))).collect();
        let narrow = cols <= I8_EXACT_I32_COLS;
        let mut scratch = vec![0.0f64; SCORE_CHUNK.min(t.rows())];
        let mut lo = 0usize;
        while lo < t.rows() {
            let hi = (lo + SCORE_CHUNK).min(t.rows());
            let chs = &scales[lo..hi];
            for (sel, (qc, qs)) in sels.iter_mut().zip(&preps) {
                let sc = &mut scratch[..hi - lo];
                if narrow {
                    for ((s, r), &rs) in sc.iter_mut().zip(lo..hi).zip(chs) {
                        *s =
                            f64::from(dot_i8_i32(&codes[r * cols..(r + 1) * cols], qc)) * (rs * qs);
                    }
                } else {
                    for ((s, r), &rs) in sc.iter_mut().zip(lo..hi).zip(chs) {
                        *s = dot_i8_i64(&codes[r * cols..(r + 1) * cols], qc) as f64 * (rs * qs);
                    }
                }
                sel.push_block(lo, sc);
            }
            lo = hi;
        }
        self.collect_sels(sels)
    }

    /// Map finished per-query selectors to `(id, score)` rankings.
    fn collect_sels(&self, sels: Vec<TopK>) -> Vec<Vec<(EntityId, f64)>> {
        sels.into_iter()
            .map(|sel| sel.into_sorted().into_iter().map(|(i, s)| (self.ids[i], s)).collect())
            .collect()
    }
}

impl CandidateSource for DenseIndex {
    fn len(&self) -> usize {
        DenseIndex::len(self)
    }

    fn dim(&self) -> usize {
        DenseIndex::dim(self)
    }

    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId> {
        self.ids.iter().copied().find(|&id| reject(id))
    }

    fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        DenseIndex::top_k(self, query, k)
    }

    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        DenseIndex::top_k_batch(self, queries, k, threads)
    }
}

impl CandidateSource for QuantizedIndex {
    fn len(&self) -> usize {
        QuantizedIndex::len(self)
    }

    fn dim(&self) -> usize {
        QuantizedIndex::dim(self)
    }

    fn find_id(&self, reject: &mut dyn FnMut(EntityId) -> bool) -> Option<EntityId> {
        self.ids.iter().copied().find(|&id| reject(id))
    }

    fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        QuantizedIndex::top_k(self, query, k)
    }

    fn top_k_batch(
        &self,
        queries: &Tensor,
        k: usize,
        threads: mb_par::Threads,
    ) -> mb_common::Result<Vec<Vec<(EntityId, f64)>>> {
        QuantizedIndex::top_k_batch(self, queries, k, threads)
    }
}

/// IVF-style approximate index: k-means centroids with inverted lists;
/// queries probe the `nprobe` nearest centroids only.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    centroids: Tensor,
    lists: Vec<Vec<usize>>,
    vectors: Tensor,
    ids: Vec<EntityId>,
    nprobe: usize,
}

impl PartitionedIndex {
    /// Partition precomputed vectors into `nlist` clusters via a few
    /// rounds of Lloyd's algorithm.
    ///
    /// # Panics
    /// Panics if `nlist == 0` or there are fewer vectors than clusters.
    pub fn build(
        vectors: Tensor,
        ids: Vec<EntityId>,
        nlist: usize,
        nprobe: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(nlist > 0, "nlist must be positive");
        let n = vectors.rows();
        assert!(n >= nlist, "need at least {nlist} vectors, got {n}");
        assert_eq!(n, ids.len());
        let d = vectors.cols();
        // Init: random distinct rows.
        let picks = rng.sample_indices(n, nlist);
        let mut centroids = Tensor::zeros(vec![nlist, d]);
        for (c, &row) in picks.iter().enumerate() {
            centroids.row_mut(c).copy_from_slice(vectors.row(row));
        }
        let mut assign = vec![0usize; n];
        for _round in 0..8 {
            // Assign.
            for i in 0..n {
                let v = vectors.row(i);
                let mut best = (0usize, f64::NEG_INFINITY);
                for c in 0..nlist {
                    let s: f64 = centroids.row(c).iter().zip(v).map(|(a, b)| a * b).sum();
                    if s > best.1 {
                        best = (c, s);
                    }
                }
                assign[i] = best.0;
            }
            // Update.
            let mut sums = Tensor::zeros(vec![nlist, d]);
            let mut counts = vec![0usize; nlist];
            for i in 0..n {
                let c = assign[i];
                counts[c] += 1;
                for (s, &v) in sums.row_mut(c).iter_mut().zip(vectors.row(i)) {
                    *s += v;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    let src: Vec<f64> = sums.row(c).iter().map(|&x| x * inv).collect();
                    centroids.row_mut(c).copy_from_slice(&src);
                }
            }
        }
        let mut lists = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            lists[c].push(i);
        }
        PartitionedIndex { centroids, lists, vectors, ids, nprobe: nprobe.max(1).min(nlist) }
    }

    /// Approximate top-k: probe the `nprobe` nearest partitions.
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(EntityId, f64)> {
        let nlist = self.centroids.rows();
        let cscores: Vec<f64> = (0..nlist)
            .map(|c| self.centroids.row(c).iter().zip(query).map(|(a, b)| a * b).sum())
            .collect();
        let probes = top_k_desc(&cscores, self.nprobe);
        let mut cand_scores = Vec::new();
        let mut cand_rows = Vec::new();
        for c in probes {
            for &row in &self.lists[c] {
                let s: f64 = self.vectors.row(row).iter().zip(query).map(|(a, b)| a * b).sum();
                cand_scores.push(s);
                cand_rows.push(row);
            }
        }
        top_k_desc(&cand_scores, k)
            .into_iter()
            .map(|i| (self.ids[cand_rows[i]], cand_scores[i]))
            .collect()
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let index = DenseIndex::from_vectors(vectors.clone(), ids);
        let mut rng = Rng::seed_from_u64(2);
        let query: Vec<f64> = (0..8).map(|_| rng.gaussian()).collect();
        let got = index.top_k(&query, 10);
        let scores = index.score_all(&query);
        let mut order: Vec<usize> = (0..200).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        for (rank, (id, s)) in got.iter().enumerate() {
            assert_eq!(id.0 as usize, order[rank]);
            assert!((s - scores[order[rank]]).abs() < 1e-12);
        }
    }

    #[test]
    fn top_k_caps_at_len() {
        let (vectors, ids) = random_index(5, 4, 3);
        let index = DenseIndex::from_vectors(vectors, ids);
        let got = index.top_k(&[1.0, 0.0, 0.0, 0.0], 64);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn partitioned_index_high_recall_with_full_probe() {
        let (vectors, ids) = random_index(300, 8, 4);
        let exact = DenseIndex::from_vectors(vectors.clone(), ids.clone());
        let mut rng = Rng::seed_from_u64(5);
        let approx = PartitionedIndex::build(vectors, ids, 10, 10, &mut rng);
        let query: Vec<f64> = (0..8).map(|_| rng.gaussian()).collect();
        // Probing all partitions must equal exact retrieval.
        let e: Vec<EntityId> = exact.top_k(&query, 20).into_iter().map(|(id, _)| id).collect();
        let a: Vec<EntityId> = approx.top_k(&query, 20).into_iter().map(|(id, _)| id).collect();
        assert_eq!(e, a);
    }

    #[test]
    fn partitioned_index_partial_probe_trades_recall() {
        let (vectors, ids) = random_index(400, 8, 6);
        let exact = DenseIndex::from_vectors(vectors.clone(), ids.clone());
        let mut rng = Rng::seed_from_u64(7);
        let approx = PartitionedIndex::build(vectors, ids, 16, 4, &mut rng);
        let mut overlap = 0;
        let mut total = 0;
        for q in 0..20 {
            let mut qrng = Rng::seed_from_u64(100 + q);
            let query: Vec<f64> = (0..8).map(|_| qrng.gaussian()).collect();
            let e: std::collections::HashSet<u32> =
                exact.top_k(&query, 10).into_iter().map(|(id, _)| id.0).collect();
            let a: std::collections::HashSet<u32> =
                approx.top_k(&query, 10).into_iter().map(|(id, _)| id.0).collect();
            overlap += e.intersection(&a).count();
            total += 10;
        }
        let recall = overlap as f64 / total as f64;
        assert!(recall > 0.5, "recall {recall} too low even for 4/16 probes");
    }

    #[test]
    fn quantized_index_agrees_with_exact_on_clear_margins() {
        let (vectors, ids) = random_index(300, 16, 11);
        let exact = DenseIndex::from_vectors(vectors.clone(), ids.clone());
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
    #[should_panic(expected = "rows vs")]
    fn mismatched_ids_panic() {
        let (vectors, _) = random_index(10, 4, 8);
        DenseIndex::from_vectors(vectors, vec![EntityId(0)]);
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
