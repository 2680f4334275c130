//! The tape-free forward of both encoders, and their frozen handles.
//!
//! Each encoder's inference op sequence is written once here, over
//! *borrowed* tensors: `encode_side` (bag-embed → linear → tanh →
//! linear → row-normalise) and `score_sets` (four pooled bags → two
//! linears → tanh → linear + γ·dot). The trainable models run them over
//! their own `Params` (`BiEncoder::embed_*`,
//! `CrossEncoder::score_batch`); [`FrozenBiEncoder`] and
//! [`FrozenCrossEncoder`] run them over an `Arc`-shared
//! [`mb_tensor::FrozenParams`] snapshot, so cloning a handle is an
//! `Arc` bump and every serving worker shares one model. Neither
//! allocates a tape or copies a parameter tensor.
//!
//! The *training* graphs (`forward_losses*`, `forward_logits`) stay a
//! second statement of the same chains, because they need `Var`s. Both
//! are built from the `mb_tensor::frozen` kernels, and one test per
//! encoder below pins graph value ≡ this forward ≡ the frozen handle,
//! bit for bit, at any thread count. With [`QuantMode::Int8`] the
//! embedding table is quantized once at freeze time and carries the
//! bounded-error contract of [`mb_tensor::quant`] instead.

use crate::biencoder::{BiEncoderConfig, BiIds, SideIds, EMBED_CHUNK, NORM_EPS};
use crate::crossencoder::{CandidateSet, CrossIds, SCORE_CHUNK};
use crate::input::EntityFeatures;
use mb_par::Threads;
use mb_tensor::frozen::{self, FrozenParams};
use mb_tensor::params::ParamId;
use mb_tensor::quant::QuantI8;
use mb_tensor::{Params, QuantMode, Tensor};
use std::sync::Arc;

/// How a forward reads the token-embedding table.
#[derive(Debug)]
pub(crate) enum EmbTable {
    /// The `f64` parameter tensor itself (bit-exact).
    Exact,
    /// Per-row symmetric int8 copy, ~8× smaller.
    Int8(QuantI8),
}

impl EmbTable {
    fn build(mode: QuantMode, table: &Tensor) -> EmbTable {
        match mode {
            QuantMode::Exact => EmbTable::Exact,
            QuantMode::Int8 => EmbTable::Int8(QuantI8::from_tensor(table)),
        }
    }

    fn bag_embed(&self, exact: &Tensor, bags: &[impl AsRef<[u32]>]) -> Tensor {
        match self {
            EmbTable::Exact => frozen::bag_embed(exact, bags),
            EmbTable::Int8(t) => t.bag_embed(bags),
        }
    }

    fn bytes(&self, exact: &Tensor) -> usize {
        match self {
            EmbTable::Exact => exact.numel() * std::mem::size_of::<f64>(),
            EmbTable::Int8(t) => t.bytes(),
        }
    }
}

/// One side of the bi-encoder over `bags` → `[bags.len(), out_dim]`.
/// `p` resolves a parameter id (`Params::get` or `FrozenParams::get`).
/// Every op computes each output row from its input row alone, so the
/// result is bit-identical however rows are grouped into calls.
pub(crate) fn encode_side<'a>(
    p: impl Fn(ParamId) -> &'a Tensor,
    table: &EmbTable,
    emb: ParamId,
    side: SideIds,
    bags: &[Vec<u32>],
) -> Tensor {
    let pooled = table.bag_embed(p(emb), bags);
    let h = frozen::linear(&pooled, p(side.w1), p(side.b1), Threads::single());
    let h = frozen::tanh(&h);
    let out = frozen::linear(&h, p(side.w2), p(side.b2), Threads::single());
    frozen::row_l2_normalize(&out, NORM_EPS)
}

/// Pooled embeddings of one bag per set, row `i` repeated
/// `sets[i].len()` times: the mention and surface bags are shared by
/// every candidate row of their set, and each row of `bag_embed`
/// depends only on its own bag, so pooling once and broadcasting is
/// bit-identical to pooling per row.
fn pooled_per_set(
    table: &EmbTable,
    exact: &Tensor,
    sets: &[CandidateSet],
    total: usize,
    bag: impl Fn(&CandidateSet) -> &[u32],
) -> Tensor {
    let bags: Vec<&[u32]> = sets.iter().map(bag).collect();
    let small = table.bag_embed(exact, &bags);
    let mut data = Vec::with_capacity(total * small.cols());
    for (i, set) in sets.iter().enumerate() {
        for _ in 0..set.len() {
            data.extend_from_slice(small.row(i));
        }
    }
    Tensor::from_vec(vec![total, small.cols()], data)
}

/// Cross-encoder scores of every candidate of every set, in one fused
/// forward over all `Σ len(setᵢ)` rows (`p` as in [`encode_side`]).
/// Every op is row-independent, so per-set scores are bit-identical
/// however sets are grouped into calls. Empty sets yield empty score
/// vectors: a serving process must not panic on a mention with no
/// retrieved candidates.
pub(crate) fn score_sets<'a>(
    p: impl Fn(ParamId) -> &'a Tensor,
    table: &EmbTable,
    ids: CrossIds,
    sets: &[CandidateSet],
) -> Vec<Vec<f64>> {
    let n: usize = sets.iter().map(|s| s.len()).sum();
    let exact = p(ids.emb);
    let m_pool = pooled_per_set(table, exact, sets, n, |s| &s.mention);
    let s_pool = pooled_per_set(table, exact, sets, n, |s| &s.surface);
    let e_bags: Vec<&[u32]> =
        sets.iter().flat_map(|s| s.entities.iter().map(Vec::as_slice)).collect();
    let t_bags: Vec<&[u32]> =
        sets.iter().flat_map(|s| s.titles.iter().map(Vec::as_slice)).collect();
    let e_pool = table.bag_embed(exact, &e_bags);
    let t_pool = table.bag_embed(exact, &t_bags);
    let sem = m_pool.mul(&e_pool);
    let surf = s_pool.mul(&t_pool);
    let h_sem = frozen::linear(&sem, p(ids.w_sem), p(ids.b_sem), Threads::single());
    let h_surf = frozen::linear(&surf, p(ids.w_surf), p(ids.b_surf), Threads::single());
    let h = frozen::tanh(&h_sem.add(&h_surf));
    let mlp_scores = frozen::linear(&h, p(ids.w_out), p(ids.b_out), Threads::single());
    // Dot-product channel: γ · (m̄ · ē) per candidate.
    let dots = frozen::rows_dot(&m_pool, &e_pool);
    let dots_col = dots.reshape(vec![n, 1]);
    let dot_scores = dots_col.matmul(p(ids.gamma));
    let scores = mlp_scores.add(&dot_scores);
    let flat = scores.data();
    let mut out = Vec::with_capacity(sets.len());
    let mut offset = 0;
    for set in sets {
        // mb-lint: allow(alloc-in-hot-loop) -- the per-set Vec is the return value, not scratch
        out.push(flat[offset..offset + set.len()].to_vec());
        offset += set.len();
    }
    out
}

#[derive(Debug)]
struct BiInner {
    cfg: BiEncoderConfig,
    params: FrozenParams,
    ids: BiIds,
    table: EmbTable,
    mode: QuantMode,
}

/// The frozen bi-encoder: [`crate::biencoder::BiEncoder`]'s inference
/// forward over an immutable snapshot. Clone is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct FrozenBiEncoder {
    inner: Arc<BiInner>,
}

impl FrozenBiEncoder {
    pub(crate) fn new(cfg: BiEncoderConfig, params: &Params, ids: BiIds, mode: QuantMode) -> Self {
        let params = FrozenParams::freeze(params);
        let table = EmbTable::build(mode, params.get(ids.emb));
        FrozenBiEncoder { inner: Arc::new(BiInner { cfg, params, ids, table, mode }) }
    }

    /// How the embedding table is stored and scored.
    pub fn mode(&self) -> QuantMode {
        self.inner.mode
    }

    /// Vocabulary size the source model was built for.
    pub fn vocab_len(&self) -> usize {
        self.inner.params.get(self.inner.ids.emb).rows()
    }

    /// Resident bytes of the embedding table as served (quantized
    /// modes shrink this; the `f64` master copy inside the snapshot is
    /// shared by every handle either way).
    pub fn table_bytes(&self) -> usize {
        self.inner.table.bytes(self.inner.params.get(self.inner.ids.emb))
    }

    /// True when both handles share one underlying model (no copy).
    pub fn shares_storage(&self, other: &FrozenBiEncoder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// [`encode_side`] over the snapshot, in fixed [`EMBED_CHUNK`]-sized
    /// chunks on separate workers when `threads` allows.
    fn embed(&self, side: SideIds, bags: &[Vec<u32>], threads: Threads) -> Tensor {
        let m = &*self.inner;
        let encode =
            |bags: &[Vec<u32>]| encode_side(|id| m.params.get(id), &m.table, m.ids.emb, side, bags);
        if threads.is_single() || bags.len() <= EMBED_CHUNK {
            return encode(bags);
        }
        let chunks = mb_par::par_chunks(threads, bags, EMBED_CHUNK, |_, c| encode(c));
        let mut data = Vec::with_capacity(bags.len() * m.cfg.out_dim);
        for chunk in &chunks {
            data.extend_from_slice(chunk.data());
        }
        Tensor::from_vec(vec![bags.len(), m.cfg.out_dim], data)
    }

    /// Batched mention encoding → `[bags.len(), out_dim]`.
    pub fn embed_mentions_batch(&self, bags: &[Vec<u32>]) -> Tensor {
        self.embed(self.inner.ids.mention, bags, Threads::single())
    }

    /// Batched entity encoding → `[bags.len(), out_dim]`.
    pub fn embed_entities_batch(&self, bags: &[Vec<u32>]) -> Tensor {
        self.embed(self.inner.ids.entity, bags, Threads::single())
    }

    /// [`FrozenBiEncoder::embed_mentions_batch`] with fixed
    /// [`EMBED_CHUNK`]-sized chunks on separate workers. The chunk size
    /// depends only on the data, so the result is bit-identical at
    /// every [`Threads`] value.
    pub fn embed_mentions_batch_with(&self, bags: &[Vec<u32>], threads: Threads) -> Tensor {
        self.embed(self.inner.ids.mention, bags, threads)
    }

    /// [`FrozenBiEncoder::embed_entities_batch`] with fixed-size chunks
    /// on separate workers.
    pub fn embed_entities_batch_with(&self, bags: &[Vec<u32>], threads: Threads) -> Tensor {
        self.embed(self.inner.ids.entity, bags, threads)
    }
}

#[derive(Debug)]
struct CrossInner {
    params: FrozenParams,
    ids: CrossIds,
    table: EmbTable,
}

/// The frozen cross-encoder:
/// [`crate::crossencoder::CrossEncoder::score_batch`] over an immutable
/// snapshot. Clone is an `Arc` bump.
///
/// The handle also carries the [`EntityFeatures`] table of the
/// dictionary it re-ranks (empty until one is attached): the
/// cross-encoder is the consumer of the entity bags, so whoever is
/// handed this handle (a worker linker, a peer assembled from shared
/// state) gets the matching featurised entities with it.
#[derive(Debug, Clone)]
pub struct FrozenCrossEncoder {
    inner: Arc<CrossInner>,
    features: Arc<EntityFeatures>,
}

impl FrozenCrossEncoder {
    pub(crate) fn new(params: &Params, ids: CrossIds, mode: QuantMode) -> Self {
        let params = FrozenParams::freeze(params);
        let table = EmbTable::build(mode, params.get(ids.emb));
        FrozenCrossEncoder {
            inner: Arc::new(CrossInner { params, ids, table }),
            features: Arc::default(),
        }
    }

    /// The same model with `features` as its entity table (replacing
    /// any previous one).
    pub fn with_features(mut self, features: Arc<EntityFeatures>) -> Self {
        self.features = features;
        self
    }

    /// The attached entity feature table; empty when none was.
    pub fn features(&self) -> &Arc<EntityFeatures> {
        &self.features
    }

    /// Resident bytes of the embedding table as served.
    pub fn table_bytes(&self) -> usize {
        self.inner.table.bytes(self.inner.params.get(self.inner.ids.emb))
    }

    /// True when both handles share one underlying model (no copy).
    pub fn shares_storage(&self, other: &FrozenCrossEncoder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Batched scoring: one fused forward over every candidate of
    /// every set. Empty sets yield empty score vectors.
    pub fn score_batch(&self, sets: &[CandidateSet]) -> Vec<Vec<f64>> {
        let m = &*self.inner;
        score_sets(|id| m.params.get(id), &m.table, m.ids, sets)
    }

    /// [`FrozenCrossEncoder::score_batch`] with fixed
    /// [`SCORE_CHUNK`]-sized chunks of sets scored on separate workers.
    /// The chunk size depends only on the data, so the result is
    /// bit-identical at every [`Threads`] value.
    pub fn score_batch_with(&self, sets: &[CandidateSet], threads: Threads) -> Vec<Vec<f64>> {
        if threads.is_single() || sets.len() <= SCORE_CHUNK {
            return self.score_batch(sets);
        }
        let chunks = mb_par::par_chunks(threads, sets, SCORE_CHUNK, |_, c| self.score_batch(c));
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biencoder::BiEncoder;
    use crate::crossencoder::{CrossEncoder, CrossEncoderConfig};
    use crate::input::{build_vocab, entity_bag, title_bag, InputConfig, TrainPair};
    use mb_common::Rng;
    use mb_datagen::{World, WorldConfig};
    use mb_tensor::Tape;

    fn setup() -> (World, mb_text::Vocab, Vec<TrainPair>) {
        let world = World::generate(WorldConfig::tiny(31));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(2);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 80, &mut rng);
        let cfg = InputConfig::default();
        let pairs: Vec<TrainPair> = ms
            .mentions
            .iter()
            .map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m))
            .collect();
        (world, vocab, pairs)
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape());
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// The bi-encoder chain is stated twice — as a training graph and
    /// as the tape-free `encode_side` — and this pins the two, and both
    /// of `encode_side`'s callers, to one value.
    #[test]
    fn bi_training_graph_model_and_frozen_forwards_are_bit_identical() {
        let (_, vocab, mut pairs) = setup();
        // 70 rows crosses the EMBED_CHUNK=32 chunked-dispatch threshold.
        pairs.truncate(70);
        pairs[3].mention.clear();
        pairs[40].entity.clear();
        let cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let model = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(5));
        let frozen = model.freeze(QuantMode::Exact);
        let m_bags: Vec<Vec<u32>> = pairs.iter().map(|p| p.mention.clone()).collect();
        let e_bags: Vec<Vec<u32>> = pairs.iter().map(|p| p.entity.clone()).collect();
        let want_m = model.embed_mentions(&m_bags);
        let want_e = model.embed_entities(&e_bags);
        assert_bits_eq(&frozen.embed_mentions_batch(&m_bags), &want_m);
        assert_bits_eq(&frozen.embed_entities_batch(&e_bags), &want_e);
        for t in [1usize, 2, 3, 4] {
            let threads = Threads::new(t);
            let mut tape = Tape::with_threads(threads);
            let fwd = model.forward_losses(&mut tape, &pairs);
            assert_bits_eq(tape.value(fwd.mentions), &want_m);
            assert_bits_eq(tape.value(fwd.entities), &want_e);
            assert_bits_eq(&frozen.embed_mentions_batch_with(&m_bags, threads), &want_m);
            assert_bits_eq(&frozen.embed_entities_batch_with(&e_bags, threads), &want_e);
        }
        assert_eq!(model.embed_mentions(&[]).shape(), &[0, 16]);
        assert_eq!(frozen.embed_mentions_batch(&[]).shape(), &[0, 16]);
        assert_eq!(frozen.vocab_len(), model.vocab_len());
    }

    #[test]
    fn frozen_clone_shares_one_model() {
        let (_, vocab, _) = setup();
        let cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let model = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(5));
        let frozen = model.freeze(QuantMode::Exact);
        assert!(frozen.clone().shares_storage(&frozen));
        assert!(!model.freeze(QuantMode::Exact).shares_storage(&frozen));
        let cross = CrossEncoder::new(
            &vocab,
            CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
            &mut Rng::seed_from_u64(6),
        );
        let fc = cross.freeze(QuantMode::Exact);
        assert!(fc.clone().shares_storage(&fc));
    }

    fn candidate_sets(
        world: &World,
        vocab: &mb_text::Vocab,
        pairs: &[TrainPair],
        k: usize,
    ) -> Vec<CandidateSet> {
        let icfg = InputConfig::default();
        let ids = world.kb().domain_entities(world.domain("TargetX").id);
        pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let mut r = Rng::seed_from_u64(i as u64);
                let candidates = (0..k)
                    .map(|_| {
                        let e = world.kb().entity(*r.choose(ids));
                        (entity_bag(vocab, &icfg, e), title_bag(vocab, e))
                    })
                    .collect();
                CandidateSet::new(pair, candidates, Some(0))
            })
            .collect()
    }

    /// The cross-encoder twin: `forward_logits` per set ≡ `score_sets`
    /// over `Params` ≡ `score_sets` over the frozen snapshot.
    #[test]
    fn cross_training_graph_model_and_frozen_forwards_are_bit_identical() {
        let (world, vocab, pairs) = setup();
        let cfg = CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() };
        let model = CrossEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(7));
        let frozen = model.freeze(QuantMode::Exact);
        // 20 sets crosses the SCORE_CHUNK=8 chunked-dispatch threshold;
        // one set is empty mid-batch, one has an empty mention bag.
        let mut sets = candidate_sets(&world, &vocab, &pairs[..20], 6);
        sets[9].entities.clear();
        sets[9].titles.clear();
        sets[4].mention.clear();
        let bits = |scores: &[Vec<f64>]| -> Vec<Vec<u64>> {
            scores.iter().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let want = bits(&model.score_batch(&sets));
        assert!(want[9].is_empty() && want.iter().filter(|w| w.len() == 6).count() == 19);
        assert_eq!(bits(&frozen.score_batch(&sets)), want);
        for t in [1usize, 2, 3, 4] {
            let threads = Threads::new(t);
            assert_eq!(bits(&frozen.score_batch_with(&sets, threads)), want);
            for (set, want) in sets.iter().zip(&want).filter(|(s, _)| !s.is_empty()) {
                let mut tape = Tape::with_threads(threads);
                let (_, logits) = model.forward_logits(&mut tape, set);
                assert_eq!(&bits(&[tape.value(logits).data().to_vec()])[0], want);
            }
        }
    }

    #[test]
    fn quantized_tables_shrink_and_stay_close() {
        let (world, vocab, pairs) = setup();
        let cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let model = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(9));
        let exact = model.freeze(QuantMode::Exact);
        let i8 = model.freeze(QuantMode::Int8);
        assert!(exact.table_bytes() / i8.table_bytes() >= 2, "int8 must at least halve the table");
        assert_eq!(i8.mode(), QuantMode::Int8);
        let bags: Vec<Vec<u32>> = pairs.iter().take(12).map(|p| p.mention.clone()).collect();
        let want = exact.embed_mentions_batch(&bags);
        for (label, frozen, bound) in [("int8", &i8, 5e-2), ("exact", &exact, 0.0)] {
            let got = frozen.embed_mentions_batch(&bags);
            let max_err = want
                .data()
                .iter()
                .zip(got.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(max_err <= bound, "{label}: max abs err {max_err} > {bound}");
        }
        // Cross-encoder quantized scoring stays close too.
        let cross = CrossEncoder::new(
            &vocab,
            CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
            &mut Rng::seed_from_u64(10),
        );
        let sets = candidate_sets(&world, &vocab, &pairs[..6], 5);
        let want = cross.score_batch(&sets);
        let got = cross.freeze(QuantMode::Int8).score_batch(&sets);
        for (w, g) in want.iter().flatten().zip(got.iter().flatten()) {
            assert!((w - g).abs() < 0.3, "int8 score drift: {w} vs {g}");
        }
    }
}
