//! The tape-free forward of both encoders, and their frozen handles.
//!
//! Each encoder's inference op sequence is written once here, over
//! *borrowed* tensors: `encode_side` (bag-embed → linear → tanh →
//! linear → row-normalise) and `score_set` (four pooled bags → two
//! linears → tanh → linear + γ·dot, one candidate row at a time). The
//! trainable models run them over their own `Params` (`BiEncoder::embed_*`,
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
use crate::crossencoder::{CandidateSet, CrossIds};
use crate::input::EntityFeatures;
use mb_kb::EntityId;
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

    fn pool_row(&self, exact: &Tensor, bag: &[u32], out: &mut [f64]) {
        match self {
            EmbTable::Exact => frozen::bag_embed_row(exact, bag, out),
            EmbTable::Int8(t) => t.bag_embed_row(bag, out),
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
    let mut pooled = Tensor::zeros(vec![bags.len(), p(emb).cols()]);
    for (i, bag) in bags.iter().enumerate() {
        table.pool_row(p(emb), bag, pooled.row_mut(i));
    }
    let h = frozen::linear(&pooled, p(side.w1), p(side.b1));
    let h = frozen::tanh(&h);
    let out = frozen::linear(&h, p(side.w2), p(side.b2));
    frozen::row_l2_normalize(&out, NORM_EPS)
}

/// Columns per register block of [`product_linear`] (8 AVX2 chains).
const LINEAR_BLOCK: usize = 32;

/// `out = (x ⊙ y) · w + b` for one row (`a`: scratch), each element one
/// fold from `+0.0` in ascending inner index, then `+ b`: the bits of
/// [`frozen::linear`] (the `mb_tensor::kernels` contract).
fn product_linear(x: &[f64], y: &[f64], w: &[f64], b: &[f64], a: &mut [f64], out: &mut [f64]) {
    for ((a, xc), yc) in a.iter_mut().zip(x).zip(y) {
        *a = xc * yc;
    }
    let n = out.len();
    let blocked = n - n % LINEAR_BLOCK;
    for o0 in (0..blocked).step_by(LINEAR_BLOCK) {
        let mut acc = [0.0; LINEAR_BLOCK];
        for (ac, w_row) in a.iter().zip(w.chunks_exact(n)) {
            let w_block = &w_row[o0..o0 + LINEAR_BLOCK];
            for j in 0..LINEAR_BLOCK {
                acc[j] += ac * w_block[j];
            }
        }
        for j in 0..LINEAR_BLOCK {
            out[o0 + j] = acc[j] + b[o0 + j];
        }
    }
    for o in blocked..n {
        let mut acc = 0.0;
        for (ac, w_row) in a.iter().zip(w.chunks_exact(n)) {
            acc += ac * w_row[o];
        }
        out[o] = acc + b[o];
    }
}

/// Cross-encoder scores of one set's `(entity bag, title bag)`
/// candidates (`p` as in [`encode_side`]): the mention and surface bags
/// are pooled once, then each candidate row runs alone, every element
/// in `CrossEncoder::forward_logits`' order, so the bits are the graph's.
pub(crate) fn score_set<'a, 'b>(
    p: impl Fn(ParamId) -> &'a Tensor,
    table: &EmbTable,
    ids: CrossIds,
    mention: &[u32],
    surface: &[u32],
    candidates: impl Iterator<Item = (&'b [u32], &'b [u32])>,
) -> Vec<f64> {
    let exact = p(ids.emb);
    let (w_sem, b_sem) = (p(ids.w_sem).data(), p(ids.b_sem).data());
    let (w_surf, b_surf) = (p(ids.w_surf).data(), p(ids.b_surf).data());
    let (w_out, b_out, gamma) = (p(ids.w_out).data(), p(ids.b_out).item(), p(ids.gamma).item());
    let (dim, hidden) = (exact.cols(), b_sem.len());
    let [mut m, mut s, mut e, mut t, mut a] = [(); 5].map(|_| vec![0.0; dim]);
    let [mut h_sem, mut h_surf] = [(); 2].map(|_| vec![0.0; hidden]);
    table.pool_row(exact, mention, &mut m);
    table.pool_row(exact, surface, &mut s);
    let score = |(entity, title): (&[u32], &[u32])| {
        table.pool_row(exact, entity, &mut e);
        table.pool_row(exact, title, &mut t);
        product_linear(&m, &e, w_sem, b_sem, &mut a, &mut h_sem);
        product_linear(&s, &t, w_surf, b_surf, &mut a, &mut h_surf);
        let mut mlp = 0.0;
        for ((hs, hf), w) in h_sem.iter().zip(&h_surf).zip(w_out) {
            mlp += (hs + hf).tanh() * w;
        }
        // The dot channel `γ · (m̄ · ē)` as the graph's `[k, 1] · [1, 1]`
        // matmul computes it: a fold from `+0.0`, which also turns a
        // `-0.0` product into `+0.0`.
        let dot_score = 0.0 + frozen::dot(&m, &e) * gamma;
        (mlp + b_out) + dot_score
    };
    candidates.map(score).collect()
}

/// [`score_set`] over each [`CandidateSet`]'s own bags.
pub(crate) fn score_each_set<'a>(
    p: impl Fn(ParamId) -> &'a Tensor,
    table: &EmbTable,
    ids: CrossIds,
    sets: &[CandidateSet],
) -> Vec<Vec<f64>> {
    let score = |set: &CandidateSet| {
        let titles = set.titles.iter().map(Vec::as_slice);
        let bags = set.entities.iter().map(Vec::as_slice).zip(titles);
        score_set(&p, table, ids, &set.mention, &set.surface, bags)
    };
    sets.iter().map(score).collect()
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

    /// Scores of every candidate of every set. Empty sets yield empty
    /// score vectors.
    pub fn score_batch(&self, sets: &[CandidateSet]) -> Vec<Vec<f64>> {
        let m = &*self.inner;
        score_each_set(|id| m.params.get(id), &m.table, m.ids, sets)
    }

    /// [`FrozenCrossEncoder::score_batch`] of one mention's bags against
    /// its `retrieved` candidates, read from the attached table. An
    /// uncovered id asserts in debug and scores as text-less in release.
    pub fn score_retrieved(
        &self,
        mention: &[u32],
        surface: &[u32],
        retrieved: &[(EntityId, f64)],
    ) -> Vec<f64> {
        let m = &*self.inner;
        let candidates = retrieved.iter().map(|&(id, _)| {
            let bags = self.features.bags(id);
            debug_assert!(bags.is_some(), "candidate outside the entity feature table");
            bags.unwrap_or_default()
        });
        score_set(|id| m.params.get(id), &m.table, m.ids, mention, surface, candidates)
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

    /// Gaussian noise on every parameter: a fresh model's biases are
    /// zero, which would hide where each `+ b` sits in its fold.
    fn perturb(params: &mut Params, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let names: Vec<String> = params.iter().map(|(name, _)| name.to_string()).collect();
        for name in names {
            let id = params.id_of(&name).expect("a name the model registered");
            params.get_mut(id).data_mut().iter_mut().for_each(|v| *v += rng.normal(0.0, 0.1));
        }
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
        let mut tape = Tape::new();
        let fwd = model.forward_losses(&mut tape, &pairs);
        assert_bits_eq(tape.value(fwd.mentions), &want_m);
        assert_bits_eq(tape.value(fwd.entities), &want_e);
        for t in [1usize, 2, 3, 4] {
            assert_bits_eq(&frozen.embed_mentions_batch_with(&m_bags, Threads::new(t)), &want_m);
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

    /// `k` random candidates of the domain per pair, as sets and as
    /// the retrieved ids they were built from.
    fn candidate_sets(
        world: &World,
        vocab: &mb_text::Vocab,
        pairs: &[TrainPair],
        k: usize,
    ) -> (Vec<CandidateSet>, Vec<Vec<(EntityId, f64)>>) {
        let icfg = InputConfig::default();
        let ids = world.kb().domain_entities(world.domain("TargetX").id);
        pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let mut r = Rng::seed_from_u64(i as u64);
                let retrieved: Vec<(EntityId, f64)> =
                    (0..k).map(|_| (*r.choose(ids), 0.0)).collect();
                let candidates = retrieved
                    .iter()
                    .map(|&(id, _)| {
                        let e = world.kb().entity(id);
                        (entity_bag(vocab, &icfg, e), title_bag(vocab, e))
                    })
                    .collect();
                (CandidateSet::new(pair, candidates, Some(0)), retrieved)
            })
            .unzip()
    }

    /// The cross-encoder twin: `forward_logits` per set ≡ `score_set`
    /// over `Params` ≡ `score_set` over the frozen snapshot, fed from
    /// the sets or from the entity feature table.
    #[test]
    fn cross_training_graph_model_and_frozen_forwards_are_bit_identical() {
        let (world, vocab, pairs) = setup();
        let cfg = CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() };
        let mut model = CrossEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(7));
        perturb(model.params_mut(), 70);
        let kb = world.kb();
        let features = EntityFeatures::try_build(
            &vocab,
            &InputConfig::default(),
            kb,
            kb.domain_entities(world.domain("TargetX").id),
        )
        .expect("domain ids are inside the kb");
        let frozen = model.freeze(QuantMode::Exact).with_features(Arc::new(features));
        // One set is empty mid-batch, one has an empty mention bag.
        let (mut sets, mut retrieved) = candidate_sets(&world, &vocab, &pairs[..20], 6);
        sets[9].entities.clear();
        sets[9].titles.clear();
        retrieved[9].clear();
        sets[4].mention.clear();
        let bits = |scores: &[Vec<f64>]| -> Vec<Vec<u64>> {
            scores.iter().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let want = bits(&model.score_batch(&sets));
        assert!(want[9].is_empty() && want.iter().filter(|w| w.len() == 6).count() == 19);
        assert_eq!(bits(&frozen.score_batch(&sets)), want);
        for ((set, retrieved), want) in sets.iter().zip(&retrieved).zip(&want) {
            let got = frozen.score_retrieved(&set.mention, &set.surface, retrieved);
            assert_eq!(&bits(&[got])[0], want);
        }
        for (set, want) in sets.iter().zip(&want).filter(|(s, _)| !s.is_empty()) {
            let mut tape = Tape::new();
            let (_, logits) = model.forward_logits(&mut tape, set);
            assert_eq!(&bits(&[tape.value(logits).data().to_vec()])[0], want);
        }
        // 40 candidates at width 32 × 40 send the graph's two linears
        // down the blocked matmul path; the row pass (one register block
        // of 32 columns, 8 columns one at a time) must still match it.
        let cfg = CrossEncoderConfig { emb_dim: 32, hidden: 40, ..Default::default() };
        let mut wide = CrossEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(8));
        perturb(wide.params_mut(), 80);
        let (wide_sets, _) = candidate_sets(&world, &vocab, &pairs[..2], 40);
        let got = bits(&wide.freeze(QuantMode::Exact).score_batch(&wide_sets));
        for (set, got) in wide_sets.iter().zip(&got) {
            let mut tape = Tape::new();
            let (_, logits) = wide.forward_logits(&mut tape, set);
            assert_eq!(&bits(&[tape.value(logits).data().to_vec()])[0], got);
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
        let (sets, _) = candidate_sets(&world, &vocab, &pairs[..6], 5);
        let want = cross.score_batch(&sets);
        let got = cross.freeze(QuantMode::Int8).score_batch(&sets);
        for (w, g) in want.iter().flatten().zip(got.iter().flatten()) {
            assert!((w - g).abs() < 0.3, "int8 score drift: {w} vs {g}");
        }
    }
}
