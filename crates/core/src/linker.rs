//! The two-stage linker: dense candidate generation + cross-encoder
//! re-ranking, with the paper's two-stage evaluation protocol
//! (recall@k for stage one, normalised accuracy for stage two,
//! unnormalised accuracy for the whole system).
//!
//! [`TwoStageLinker::link_batch`] is the single inference code path:
//! evaluation iterates it chunk-wise and the `mb-serve` micro-batching
//! engine calls it per drained batch (on the mentions its result cache
//! does not hold), so serving results are definitionally bit-identical
//! to offline evaluation.

use mb_datagen::LinkedMention;
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder};
use mb_encoders::frozen::{FrozenBiEncoder, FrozenCrossEncoder};
use mb_encoders::input::{mention_bag, surface_bag, EntityFeatures, InputConfig};
use mb_encoders::retrieval::{CandidateSource, DenseIndex, QuantizedIndex};
use mb_kb::{EntityId, KnowledgeBase};
use mb_tensor::QuantMode;
use mb_text::Vocab;
use std::sync::Arc;

/// Linker-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkerConfig {
    /// Candidates retrieved by the bi-encoder stage (paper: 64).
    pub k: usize,
    /// Input truncation.
    pub input: InputConfig,
    /// Worker threads for the batch inference hot paths (embedding,
    /// retrieval, re-ranking). Partitioning is by fixed chunk size or
    /// by mention, so outputs are bit-identical for every value.
    pub threads: mb_par::Threads,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig { k: 64, input: InputConfig::default(), threads: mb_par::Threads::single() }
    }
}

/// Two-stage evaluation numbers (percentages, 0–100).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkMetrics {
    /// Stage-one recall@k.
    pub recall_at_k: f64,
    /// Normalised accuracy: accuracy over mentions whose gold entity
    /// was retrieved.
    pub normalized_acc: f64,
    /// Unnormalised accuracy = recall × normalised accuracy (measured
    /// directly as end-to-end accuracy).
    pub unnormalized_acc: f64,
    /// Number of evaluated mentions.
    pub count: usize,
}

/// Full two-stage output for one mention.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkResult {
    /// Stage-one candidates `(entity, bi-encoder score)`, best first.
    pub retrieved: Vec<(EntityId, f64)>,
    /// Stage-two (cross-encoder) scores aligned with `retrieved`.
    pub rerank_scores: Vec<f64>,
    /// The re-ranked best entity; `None` when retrieval was empty.
    pub predicted: Option<EntityId>,
}

/// A trained two-stage linker over a fixed candidate dictionary.
pub struct TwoStageLinker<'a> {
    /// The bi-encoder (stage one).
    pub bi: &'a BiEncoder,
    /// The cross-encoder (stage two).
    pub cross: &'a CrossEncoder,
    /// Shared vocabulary.
    pub vocab: &'a Vocab,
    /// Knowledge base.
    kb: &'a KnowledgeBase,
    /// Configuration.
    pub cfg: LinkerConfig,
    index: Arc<DenseIndex>,
    qindex: Option<Arc<QuantizedIndex>>,
    /// Approximate retrieval backend (e.g. an IVF index over a sharded
    /// store); when set it answers stage one instead of the exact
    /// indexes.
    ann: Option<Arc<dyn CandidateSource>>,
    frozen_bi: FrozenBiEncoder,
    /// Carries the [`EntityFeatures`] table candidate sets are read
    /// from; it covers every id stage one can return (validated at
    /// construction).
    frozen_cross: FrozenCrossEncoder,
}

impl<'a> TwoStageLinker<'a> {
    /// Build the linker, embedding the candidate dictionary
    /// (`entities`) with the bi-encoder. Freezes both encoders (exact
    /// tables) for the tape-free inference path; stage one scans the
    /// exact index.
    ///
    /// # Panics
    /// Panics when `entities` references an id outside `kb` — callers
    /// handling untrusted dictionaries use [`TwoStageLinker::try_new`].
    pub fn new(
        bi: &'a BiEncoder,
        cross: &'a CrossEncoder,
        vocab: &'a Vocab,
        kb: &'a KnowledgeBase,
        entities: &[EntityId],
        cfg: LinkerConfig,
    ) -> Self {
        Self::try_new(bi, cross, vocab, kb, entities, cfg).expect("valid candidate dictionary")
    }

    /// Fallible [`TwoStageLinker::new`]: the typed-error path for
    /// dictionaries that arrive from outside the process (checkpoint
    /// sidecars, stores, CLI arguments).
    ///
    /// # Errors
    /// [`mb_common::Error::NotFound`] when `entities` references an id
    /// outside `kb`.
    pub fn try_new(
        bi: &'a BiEncoder,
        cross: &'a CrossEncoder,
        vocab: &'a Vocab,
        kb: &'a KnowledgeBase,
        entities: &[EntityId],
        cfg: LinkerConfig,
    ) -> mb_common::Result<Self> {
        // One featurisation of the dictionary feeds both the index
        // embeddings and the link-time candidate table.
        let features = Arc::new(EntityFeatures::try_build(vocab, &cfg.input, kb, entities)?);
        let index = Arc::new(DenseIndex::from_features(bi, &features, entities)?);
        let frozen_cross = cross.freeze(QuantMode::Exact).with_features(features);
        Self::with_frozen(
            bi,
            cross,
            vocab,
            kb,
            cfg,
            index,
            None,
            bi.freeze(QuantMode::Exact),
            frozen_cross,
        )
    }

    /// Assemble a linker around **pre-frozen** shared state — the
    /// per-worker serving constructor. Every argument that carries
    /// model weight (`index`, `qindex`, `frozen_bi`, `frozen_cross`)
    /// is an `Arc`-backed handle, so calling this per worker (or per
    /// batch) shares one frozen model process-wide instead of cloning
    /// parameters. A supplied `qindex` (the int8 scan a store-backed
    /// generation serves) answers stage one instead of `index`.
    ///
    /// Candidate entities are read from the [`EntityFeatures`] table
    /// `frozen_cross` carries; a handle without one gets a table built
    /// here for the index's ids (once per call). Either way the linker
    /// only assembles if the table was built with this `vocab` and
    /// `cfg.input`, and if `index` and a supplied `qindex`
    /// each pass [`TwoStageLinker::with_ann`]'s backend check, so no
    /// request can fail on a mis-sized table or reach an unfeaturised
    /// or stale entity.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when `index` or `qindex`
    /// does not match the bi-encoder's output dimension;
    /// [`mb_common::Error::NotFound`] when either can return an entity
    /// id outside `kb` or the feature table;
    /// [`mb_common::Error::InvalidConfig`] when the carried table was
    /// built with another vocabulary or description truncation.
    #[allow(clippy::too_many_arguments)] // the point is threading shared handles through
    pub fn with_frozen(
        bi: &'a BiEncoder,
        cross: &'a CrossEncoder,
        vocab: &'a Vocab,
        kb: &'a KnowledgeBase,
        cfg: LinkerConfig,
        index: Arc<DenseIndex>,
        qindex: Option<Arc<QuantizedIndex>>,
        frozen_bi: FrozenBiEncoder,
        frozen_cross: FrozenCrossEncoder,
    ) -> mb_common::Result<Self> {
        let frozen_cross = if frozen_cross.features().is_empty() {
            let features = EntityFeatures::try_build(vocab, &cfg.input, kb, index.ids())?;
            frozen_cross.with_features(Arc::new(features))
        } else {
            frozen_cross.features().check_inputs(vocab, &cfg.input)?;
            frozen_cross
        };
        let features = frozen_cross.features();
        Self::check_backend("TwoStageLinker::with_frozen", index.as_ref(), bi, kb, features)?;
        if let Some(qi) = &qindex {
            Self::check_backend("TwoStageLinker::with_frozen", qi.as_ref(), bi, kb, features)?;
        }
        Ok(TwoStageLinker {
            bi,
            cross,
            vocab,
            kb,
            cfg,
            index,
            qindex,
            ann: None,
            frozen_bi,
            frozen_cross,
        })
    }

    /// Attach an approximate retrieval backend; stage one then queries
    /// it instead of the exact indexes. The backend must agree with the
    /// bi-encoder dimension, stay inside the knowledge base, and return
    /// only ids the entity feature table covers.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] on a dimension mismatch;
    /// [`mb_common::Error::NotFound`] when the backend can return an
    /// id outside `kb` or the feature table.
    pub fn with_ann(mut self, ann: Arc<dyn CandidateSource>) -> mb_common::Result<Self> {
        Self::check_backend(
            "TwoStageLinker::with_ann",
            ann.as_ref(),
            self.bi,
            self.kb,
            self.features(),
        )?;
        self.ann = Some(ann);
        Ok(self)
    }

    /// The one check every stage-one backend passes before it may
    /// answer: its vectors match the bi-encoder's output dimension and
    /// every id it can return resolves in `kb` and in `features`.
    fn check_backend(
        op: &'static str,
        source: &dyn CandidateSource,
        bi: &BiEncoder,
        kb: &KnowledgeBase,
        features: &EntityFeatures,
    ) -> mb_common::Result<()> {
        let out_dim = bi.config().out_dim;
        if !source.is_empty() && source.dim() != out_dim {
            return Err(mb_common::Error::shape(
                op,
                format!("bi-encoder out_dim {out_dim}"),
                format!("retrieval backend dim {}", source.dim()),
            ));
        }
        let kb_len = kb.len();
        match source.find_id(&mut |id| id.0 as usize >= kb_len || !features.covers(id)) {
            None => Ok(()),
            Some(id) => {
                let (outside, len) = if id.0 as usize >= kb_len {
                    ("knowledge base", kb_len)
                } else {
                    ("the entity feature table", features.len())
                };
                Err(mb_common::Error::NotFound(format!(
                    "{op}: indexed entity {} outside {outside} of {len} entities",
                    id.0
                )))
            }
        }
    }

    /// Stage one: retrieve the top-k candidates for a mention.
    pub fn candidates(&self, mention: &LinkedMention) -> Vec<(EntityId, f64)> {
        let bag = mention_bag(self.vocab, &self.cfg.input, mention);
        let q = self.frozen_bi.embed_mentions_batch(&[bag]);
        self.backend().top_k(q.row(0), self.cfg.k)
    }

    /// The backend that answers stage one: the approximate one when
    /// attached, else the quantized index when one is active, else the
    /// exact index.
    fn backend(&self) -> &dyn CandidateSource {
        match (&self.ann, &self.qindex) {
            (Some(ann), _) => ann.as_ref(),
            (None, Some(qindex)) => qindex.as_ref(),
            (None, None) => self.index.as_ref(),
        }
    }

    /// Build a cross-encoder candidate set for a mention from retrieved
    /// candidates, marking the gold index when present (a training
    /// example; `link_batch` reads the same bags in place). Entity and
    /// title bags are copied from the [`EntityFeatures`] table.
    ///
    /// `retrieved` must come from this linker's stage one
    /// ([`TwoStageLinker::candidates`] / `link_batch`), whose ids the
    /// table covers by construction. An id from anywhere else is a
    /// caller bug: debug builds assert, release builds featurise it as
    /// an entity without text rather than panic on the serving path.
    pub fn candidate_set(
        &self,
        mention: &LinkedMention,
        retrieved: &[(EntityId, f64)],
    ) -> CandidateSet {
        let features = self.features();
        let bag = |bag: Option<&[u32]>| {
            debug_assert!(bag.is_some(), "candidate outside the linker's entity feature table");
            bag.unwrap_or_default().to_vec()
        };
        CandidateSet {
            mention: mention_bag(self.vocab, &self.cfg.input, mention),
            surface: surface_bag(self.vocab, mention),
            entities: retrieved.iter().map(|&(id, _)| bag(features.entity(id))).collect(),
            titles: retrieved.iter().map(|&(id, _)| bag(features.title(id))).collect(),
            gold_index: retrieved.iter().position(|(id, _)| *id == mention.entity),
        }
    }

    /// Full two-stage prediction: the re-ranked best entity, or `None`
    /// when retrieval returns nothing (or inference fails).
    pub fn predict(&self, mention: &LinkedMention) -> Option<EntityId> {
        self.link(mention).ok().and_then(|r| r.predicted)
    }

    /// Full two-stage inference for one mention (a one-element
    /// [`TwoStageLinker::link_batch`]).
    ///
    /// # Errors
    /// Propagates [`TwoStageLinker::link_batch`] errors;
    /// [`mb_common::Error::Internal`] if the batch path violates its
    /// one-result-per-mention contract (a bug, reported as a typed
    /// error so the serving path stays panic-free).
    pub fn link(&self, mention: &LinkedMention) -> mb_common::Result<LinkResult> {
        match self.link_batch(std::slice::from_ref(mention))?.pop() {
            Some(result) => Ok(result),
            None => Err(mb_common::Error::Internal(
                "link_batch returned no result for a one-mention batch".to_string(),
            )),
        }
    }

    /// Batched two-stage inference — the shared serving/evaluation
    /// code path.
    ///
    /// The whole batch runs through **one** fused bi-encoder forward
    /// and **one** fused multi-query retrieval call; then each mention's
    /// candidates are scored row by row straight from the entity
    /// feature table ([`FrozenCrossEncoder::score_retrieved`]). Every op
    /// is row-independent, so element `i` is bit-identical to
    /// `link(&mentions[i])` — a repeated mention gets the same bits.
    ///
    /// # Errors
    /// [`mb_common::Error::ShapeMismatch`] when the retrieval backend
    /// rejects the query matrix — unreachable for a linker whose
    /// index/ann passed construction validation.
    pub fn link_batch(&self, mentions: &[LinkedMention]) -> mb_common::Result<Vec<LinkResult>> {
        // An empty forward panics: nothing to link is nothing to run.
        if mentions.is_empty() {
            return Ok(Vec::new());
        }
        let bags: Vec<Vec<u32>> =
            mentions.iter().map(|m| mention_bag(self.vocab, &self.cfg.input, m)).collect();
        let queries = self.frozen_bi.embed_mentions_batch_with(&bags, self.cfg.threads);
        // Stage one: a single multi-query retrieval call — the backend
        // streams its centroid table / entity rows once per query block
        // instead of once per query (DESIGN.md §16).
        let retrieved = self.backend().top_k_batch(&queries, self.cfg.k, self.cfg.threads)?;
        // Stage two fans out over mention index, reading only shared
        // immutable state; results come back in mention order.
        let scores = mb_par::par_map_range(self.cfg.threads, mentions.len(), |i| {
            let surface = surface_bag(self.vocab, &mentions[i]);
            self.frozen_cross.score_retrieved(&bags[i], &surface, &retrieved[i])
        });
        Ok(retrieved
            .into_iter()
            .zip(scores)
            .map(|(retrieved, rerank_scores)| {
                let predicted = mb_common::util::argmax(&rerank_scores).map(|i| retrieved[i].0);
                LinkResult { retrieved, rerank_scores, predicted }
            })
            .collect())
    }

    /// Raw integer tallies `(recalled, correct_given_recalled,
    /// correct)` for one evaluation chunk. Integer counts merge exactly
    /// under any sharding, unlike percentage metrics.
    fn tally(&self, chunk: &[LinkedMention]) -> (usize, usize, usize) {
        let mut recalled = 0usize;
        let mut correct_given_recalled = 0usize;
        let mut correct = 0usize;
        // A retrieval shape error is unreachable here: the index (or
        // ann backend) was validated against the bi-encoder dimension
        // at construction. Under `evaluate_parallel` this panic is
        // contained as a typed `Error::Worker` at the fork point.
        let results = self.link_batch(chunk).expect("construction-validated linker");
        for (m, r) in chunk.iter().zip(results) {
            let gold_in = r.retrieved.iter().any(|(id, _)| *id == m.entity);
            if gold_in {
                recalled += 1;
            }
            if r.predicted == Some(m.entity) {
                correct += 1;
                if gold_in {
                    correct_given_recalled += 1;
                }
            }
        }
        (recalled, correct_given_recalled, correct)
    }

    /// Assemble the paper's percentage metrics from per-chunk tallies.
    fn metrics_from_tallies(
        n_mentions: usize,
        tallies: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> LinkMetrics {
        let (recalled, correct_given_recalled, correct) =
            tallies.into_iter().fold((0, 0, 0), |(r, cg, c), t| (r + t.0, cg + t.1, c + t.2));
        let n = n_mentions.max(1) as f64;
        LinkMetrics {
            recall_at_k: 100.0 * recalled as f64 / n,
            normalized_acc: if recalled == 0 {
                0.0
            } else {
                100.0 * correct_given_recalled as f64 / recalled as f64
            },
            unnormalized_acc: 100.0 * correct as f64 / n,
            count: n_mentions,
        }
    }

    /// Evaluation chunk size, so one `link_batch` stays bounded in memory
    /// (chunking cannot change results). Fixed by data, never by a worker
    /// count, so serial and parallel evaluation see the same chunks.
    const EVAL_CHUNK: usize = 32;

    /// Evaluate on gold mentions with the paper's protocol.
    pub fn evaluate(&self, mentions: &[LinkedMention]) -> LinkMetrics {
        let tallies = mentions.chunks(Self::EVAL_CHUNK).map(|chunk| self.tally(chunk));
        Self::metrics_from_tallies(mentions.len(), tallies)
    }

    /// Parallel [`TwoStageLinker::evaluate`]: fans the fixed
    /// `EVAL_CHUNK`-sized evaluation chunks out over `threads`
    /// workers via [`mb_par::try_par_chunks`]. Because chunk boundaries
    /// are thread-count-independent and the merge sums integer tallies,
    /// the result is **bit-identical** to the serial path for every
    /// thread count (a unit test checks this).
    ///
    /// # Errors
    /// [`mb_common::Error::Worker`] when an evaluation shard panics;
    /// the panic is contained at the fork point instead of tearing down
    /// the caller.
    pub fn evaluate_parallel(
        &self,
        mentions: &[LinkedMention],
        threads: mb_par::Threads,
    ) -> mb_common::Result<LinkMetrics> {
        let tallies = mb_par::try_par_chunks(threads, mentions, Self::EVAL_CHUNK, |_, chunk| {
            self.tally(chunk)
        })?;
        Ok(Self::metrics_from_tallies(mentions.len(), tallies))
    }

    /// The underlying dense index (for diagnostics/benches).
    pub fn index(&self) -> &DenseIndex {
        &self.index
    }

    /// Shared handle to the exact index, for handing to
    /// [`TwoStageLinker::with_frozen`] peers without re-embedding.
    pub fn index_shared(&self) -> Arc<DenseIndex> {
        Arc::clone(&self.index)
    }

    /// Shared handle to the quantized index, when one was supplied to
    /// [`TwoStageLinker::with_frozen`].
    pub fn quantized_index(&self) -> Option<Arc<QuantizedIndex>> {
        self.qindex.clone()
    }

    /// The frozen bi-encoder handle this linker scores with.
    pub fn frozen_bi(&self) -> &FrozenBiEncoder {
        &self.frozen_bi
    }

    /// The frozen cross-encoder handle this linker scores with; it
    /// carries [`TwoStageLinker::features`], so a
    /// [`TwoStageLinker::with_frozen`] peer built from it shares the
    /// table.
    pub fn frozen_cross(&self) -> &FrozenCrossEncoder {
        &self.frozen_cross
    }

    /// The entity feature table candidate sets are read from.
    pub fn features(&self) -> &Arc<EntityFeatures> {
        self.frozen_cross.features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::Rng;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::BiEncoderConfig;
    use mb_encoders::crossencoder::CrossEncoderConfig;
    use mb_encoders::input::{build_vocab, TrainPair};
    use mb_encoders::train::{train_biencoder, train_crossencoder, TrainConfig};

    struct Fixture {
        world: World,
        vocab: Vocab,
        bi: BiEncoder,
        cross: CrossEncoder,
        train: Vec<LinkedMention>,
        test: Vec<LinkedMention>,
    }

    fn fixture() -> Fixture {
        let world = World::generate(WorldConfig::tiny(43));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(8);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 220, &mut rng);
        let (train, test) = ms.mentions.split_at(150);
        let icfg = InputConfig::default();
        let pairs: Vec<TrainPair> =
            train.iter().map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m)).collect();
        let mut bi = BiEncoder::new(
            &vocab,
            BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
            &mut Rng::seed_from_u64(1),
        );
        train_biencoder(
            &mut bi,
            &pairs,
            &TrainConfig { epochs: 10, batch_size: 24, lr: 0.01, seed: 2 },
        );
        // Cross-encoder trained on bi-encoder candidates.
        let mut cross = CrossEncoder::new(
            &vocab,
            CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
            &mut Rng::seed_from_u64(3),
        );
        {
            let linker = TwoStageLinker::new(
                &bi,
                &cross,
                &vocab,
                world.kb(),
                world.kb().domain_entities(domain.id),
                LinkerConfig { k: 16, input: icfg, ..LinkerConfig::default() },
            );
            let sets: Vec<CandidateSet> = train
                .iter()
                .filter_map(|m| {
                    let retrieved = linker.candidates(m);
                    let set = linker.candidate_set(m, &retrieved);
                    set.gold_index.map(|_| set)
                })
                .collect();
            let mut c2 = cross.clone();
            train_crossencoder(
                &mut c2,
                &sets,
                &TrainConfig { epochs: 4, batch_size: 1, lr: 0.01, seed: 4 },
            );
            cross = c2;
        }
        Fixture { world, vocab, bi, cross, train: train.to_vec(), test: test.to_vec() }
    }

    #[test]
    fn trained_linker_beats_chance_and_metrics_are_consistent() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            f.world.kb().domain_entities(domain.id),
            LinkerConfig { k: 16, ..LinkerConfig::default() },
        );
        let m = linker.evaluate(&f.test);
        assert_eq!(m.count, f.test.len());
        // 16 of 90 entities retrieved: random recall ≈ 18%; trained
        // recall must be far above.
        assert!(m.recall_at_k > 50.0, "recall {}", m.recall_at_k);
        // U.Acc ≈ R × N.Acc (both are over the same test set).
        let product = m.recall_at_k / 100.0 * m.normalized_acc / 100.0 * 100.0;
        assert!(
            (m.unnormalized_acc - product).abs() < 1.0,
            "U {} vs R*N {product}",
            m.unnormalized_acc
        );
        // And beats random ranking of candidates (1/16 of recall).
        assert!(m.unnormalized_acc > 10.0, "U.Acc {}", m.unnormalized_acc);
    }

    #[test]
    fn train_metrics_exceed_test_metrics() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            f.world.kb().domain_entities(domain.id),
            LinkerConfig { k: 16, ..LinkerConfig::default() },
        );
        let tr = linker.evaluate(&f.train);
        let te = linker.evaluate(&f.test);
        assert!(tr.unnormalized_acc + 5.0 >= te.unnormalized_acc);
    }

    #[test]
    fn predict_returns_candidate_from_dictionary() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let dict = f.world.kb().domain_entities(domain.id);
        let linker = TwoStageLinker::new(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            dict,
            LinkerConfig { k: 8, ..LinkerConfig::default() },
        );
        for m in f.test.iter().take(10) {
            let p = linker.predict(m).expect("non-empty dictionary");
            assert!(dict.contains(&p));
        }
    }

    #[test]
    fn with_frozen_validates_dimensions_and_ids() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let dict = f.world.kb().domain_entities(domain.id);
        let cfg = LinkerConfig { k: 8, ..LinkerConfig::default() };
        let assemble = |index: DenseIndex, qindex: Option<QuantizedIndex>| {
            TwoStageLinker::with_frozen(
                &f.bi,
                &f.cross,
                &f.vocab,
                f.world.kb(),
                cfg,
                Arc::new(index),
                qindex.map(Arc::new),
                f.bi.freeze(QuantMode::Exact),
                f.cross.freeze(QuantMode::Exact),
            )
        };
        let index = DenseIndex::build(&f.bi, &f.vocab, &cfg.input, f.world.kb(), dict);
        let linker = assemble(index.clone(), None).expect("well-formed index");
        let direct = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, f.world.kb(), dict, cfg);
        assert_eq!(
            linker.link_batch(&f.test[..4]).expect("link"),
            direct.link_batch(&f.test[..4]).expect("link")
        );
        // Wrong dimensionality is rejected.
        let out_dim = f.bi.config().out_dim;
        let bad_dim =
            DenseIndex::try_from_vectors(mb_tensor::Tensor::zeros([1, out_dim + 1]), vec![dict[0]])
                .expect("one id per row");
        let err = assemble(bad_dim, None).err();
        assert!(matches!(err, Some(mb_common::Error::ShapeMismatch { .. })), "got {err:?}");
        // Out-of-range entity ids are rejected.
        let bad_id = DenseIndex::try_from_vectors(
            mb_tensor::Tensor::zeros([1, out_dim]),
            vec![EntityId(f.world.kb().len() as u32)],
        )
        .expect("one id per row");
        let err = assemble(bad_id, None).err();
        assert!(matches!(err, Some(mb_common::Error::NotFound(_))), "got {err:?}");
        // So is a supplied quantized table of the wrong width: it would
        // answer every request, so it must fail here, not there.
        let wide = mb_tensor::Tensor::zeros([dict.len(), out_dim + 1]);
        let table = mb_tensor::quant::QuantI8::from_tensor(&wide);
        let mis_sized = QuantizedIndex::from_i8([&table], dict.to_vec()).expect("aligned ids");
        let err = assemble(index, Some(mis_sized)).err();
        assert!(matches!(err, Some(mb_common::Error::ShapeMismatch { .. })), "got {err:?}");
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            f.world.kb().domain_entities(domain.id),
            LinkerConfig { k: 16, ..LinkerConfig::default() },
        );
        let serial = linker.evaluate(&f.test);
        for threads in [1, 2, 3, 7] {
            let parallel = linker
                .evaluate_parallel(&f.test, mb_par::Threads::new(threads))
                .expect("no shard panics");
            // Integer tallies over thread-count-independent chunks
            // merge exactly: the metrics are bit-identical, not just
            // close.
            assert_eq!(serial.recall_at_k.to_bits(), parallel.recall_at_k.to_bits());
            assert_eq!(serial.normalized_acc.to_bits(), parallel.normalized_acc.to_bits());
            assert_eq!(serial.unnormalized_acc.to_bits(), parallel.unnormalized_acc.to_bits());
            assert_eq!(serial.count, parallel.count);
        }
    }

    #[test]
    fn with_frozen_shares_one_model_and_matches() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let dict = f.world.kb().domain_entities(domain.id);
        let cfg = LinkerConfig { k: 8, ..LinkerConfig::default() };
        let owner = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, f.world.kb(), dict, cfg);
        // A "worker" linker assembled purely from shared handles: no
        // re-embedding, no re-freezing, no parameter clones.
        let worker = TwoStageLinker::with_frozen(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            cfg,
            owner.index_shared(),
            owner.quantized_index(),
            owner.frozen_bi().clone(),
            owner.frozen_cross().clone(),
        )
        .expect("shared state is consistent");
        assert!(worker.frozen_bi().shares_storage(owner.frozen_bi()));
        assert!(worker.frozen_cross().shares_storage(owner.frozen_cross()));
        assert!(Arc::ptr_eq(worker.features(), owner.features()), "the table rides on the handle");
        assert_eq!(
            worker.link_batch(&f.test[..16]).expect("link"),
            owner.link_batch(&f.test[..16]).expect("link")
        );
    }

    #[test]
    fn feature_table_coverage_is_validated_at_construction() {
        let f = fixture();
        let kb = f.world.kb();
        let dict = kb.domain_entities(f.world.domain("TargetX").id);
        let cfg = LinkerConfig { k: 8, ..LinkerConfig::default() };
        let owner = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, kb, dict, cfg);
        let assemble = |index: DenseIndex| {
            TwoStageLinker::with_frozen(
                &f.bi,
                &f.cross,
                &f.vocab,
                kb,
                cfg,
                Arc::new(index),
                None,
                owner.frozen_bi().clone(),
                owner.frozen_cross().clone(),
            )
        };
        // An index over entities the carried table was not built for is
        // a typed error at assembly, not a panic on the first request.
        let foreign = kb.domain_entities(f.world.domain("SrcA").id);
        let err = assemble(DenseIndex::build(&f.bi, &f.vocab, &cfg.input, kb, foreign)).err();
        assert!(matches!(err, Some(mb_common::Error::NotFound(_))), "got {err:?}");
        // So is an ANN backend that can return such an entity.
        let covered = || assemble(owner.index().clone()).expect("the table's own dictionary");
        let foreign_ann = DenseIndex::build(&f.bi, &f.vocab, &cfg.input, kb, &foreign[..1]);
        let err = covered().with_ann(Arc::new(foreign_ann)).err();
        assert!(matches!(err, Some(mb_common::Error::NotFound(_))), "got {err:?}");
        // An ANN backend over the dictionary itself attaches, although
        // TargetX is not a prefix of the KB's id space.
        let ann = covered().with_ann(Arc::new(owner.index().clone())).expect("covered ids");
        assert_eq!(
            ann.link_batch(&f.test[..8]).expect("link"),
            owner.link_batch(&f.test[..8]).expect("link")
        );
    }

    #[test]
    fn a_table_built_with_other_inputs_is_rejected_at_construction() {
        let f = fixture();
        let kb = f.world.kb();
        let dict = kb.domain_entities(f.world.domain("TargetX").id);
        let cfg = LinkerConfig { k: 8, ..LinkerConfig::default() };
        let owner = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, kb, dict, cfg);
        let reuse = |vocab: &Vocab, cfg: LinkerConfig| {
            TwoStageLinker::with_frozen(
                &f.bi,
                &f.cross,
                vocab,
                kb,
                cfg,
                owner.index_shared(),
                None,
                owner.frozen_bi().clone(),
                owner.frozen_cross().clone(),
            )
            .err()
        };
        // The handle's table was cut at the default truncation and
        // holds ids of `f.vocab`: reusing it under any other is stale.
        let mut longer = cfg;
        longer.input.max_description += 1;
        let err = reuse(&f.vocab, longer);
        assert!(matches!(err, Some(mb_common::Error::InvalidConfig(_))), "got {err:?}");
        let err = reuse(&build_vocab(kb, [], 2), cfg);
        assert!(matches!(err, Some(mb_common::Error::InvalidConfig(_))), "got {err:?}");
        assert!(reuse(&f.vocab, cfg).is_none());
    }

    #[test]
    fn an_int8_index_agrees_with_exact_predictions() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let dict = f.world.kb().domain_entities(domain.id);
        let base = LinkerConfig { k: 16, ..LinkerConfig::default() };
        let exact = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, f.world.kb(), dict, base);
        let want: Vec<_> =
            exact.link_batch(&f.test).expect("link").into_iter().map(|r| r.predicted).collect();
        let qindex = QuantizedIndex::from_dense(exact.index()).expect("narrow index");
        let q = TwoStageLinker::with_frozen(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            base,
            exact.index_shared(),
            Some(Arc::new(qindex)),
            exact.frozen_bi().clone(),
            exact.frozen_cross().clone(),
        )
        .expect("the exact linker's own state");
        let got: Vec<_> =
            q.link_batch(&f.test).expect("link").into_iter().map(|r| r.predicted).collect();
        let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count();
        // Quantization noise may flip genuine near-ties, but top-1
        // decisions must overwhelmingly survive.
        assert!(
            agree * 100 >= want.len() * 95,
            "int8: only {agree}/{} predictions agree with exact",
            want.len()
        );
    }

    #[test]
    fn empty_evaluation_is_zeroed() {
        let f = fixture();
        let domain = f.world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &f.bi,
            &f.cross,
            &f.vocab,
            f.world.kb(),
            f.world.kb().domain_entities(domain.id),
            LinkerConfig::default(),
        );
        let m = linker.evaluate(&[]);
        assert_eq!(m.count, 0);
        assert_eq!(m.unnormalized_acc, 0.0);
    }
}
