//! Versioned model registry with atomic hot swap.
//!
//! A [`Generation`] bundles one validated [`ServeModel`] with the
//! retrieval index built from it; the [`ModelRegistry`] owns the
//! current generation behind an `Arc` and swaps it atomically. The
//! swap protocol (DESIGN.md §13):
//!
//! 1. **Load off the request path.** [`ModelRegistry::reload`] runs on
//!    the caller's thread (an admin-request handler or the source
//!    watcher), never on a batch worker. The candidate checkpoint is
//!    read through the `mb-params v2` loader, whose per-section CRCs
//!    reject torn or bit-flipped files.
//! 2. **Validate before publishing.** Building a [`Generation`]
//!    constructs the dense index, the quantized tables, and a
//!    throwaway [`TwoStageLinker`] — the same fail-fast check the
//!    server start-up runs. A candidate that fails *any* of this is
//!    rejected; the old generation keeps serving untouched.
//! 3. **Swap one pointer.** Publishing replaces the `Arc<Generation>`
//!    under a mutex held for the duration of a pointer write. Workers
//!    re-resolve the current generation between batches; handlers
//!    render each response with the generation that actually computed
//!    it, so a reply is never mixed across generations.
//!
//! Reloads are serialized by an atomic flag rather than a lock so an
//! in-progress reload answers `503 + Retry-After` instead of queueing
//! admin requests behind an index build.

use crate::model::ServeModel;
use mb_common::{Error, Result};
use mb_core::linker::TwoStageLinker;
use mb_encoders::input::EntityFeatures;
use mb_encoders::retrieval::{CandidateSource, DenseIndex, QuantizedIndex};
use mb_kb::EntityId;
use mb_store::{EntityStore, IvfConfig, IvfIndex, Threads, IVF_FILE, MANIFEST};
use mb_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Subdirectory of a reload source that, when it holds a store
/// manifest, switches the generation to sharded-store retrieval.
pub const STORE_SUBDIR: &str = "store";

/// Loads a candidate [`ServeModel`] from a checkpoint path. The closure
/// owns whatever context rebuilding a model needs (vocab, KB, encoder
/// configs); the registry only cares that corrupt inputs come back as
/// `Err`.
pub type ModelLoader = Box<dyn Fn(&Path) -> Result<ServeModel> + Send + Sync>;

/// One immutable published model generation: the model plus the
/// retrieval index built and validated from it. Workers and handlers
/// hold it via `Arc`, so an old generation stays alive exactly as long
/// as requests still riding it.
///
/// Building a generation also featurises the served entities once into
/// an [`EntityFeatures`] table and attaches it to the model's frozen
/// cross-encoder handle (`model.frozen_cross().features()`), which is
/// how every worker linker receives it.
pub struct Generation {
    /// Monotonic generation number (1 = the model the server started
    /// with).
    pub id: u64,
    /// Where this generation came from (checkpoint path or a label).
    pub source: String,
    /// The servable model bundle.
    pub model: ServeModel,
    /// Dense retrieval index over the model's dictionary (empty when
    /// the generation retrieves from a sharded store instead).
    pub index: Arc<DenseIndex>,
    /// Quantized retrieval tables (`None` under exact scoring). For a
    /// store-backed generation these are assembled **from the shard
    /// sections byte-for-byte** — start-up and reload never re-quantize
    /// embeddings.
    pub qindex: Option<Arc<QuantizedIndex>>,
    /// The sharded entity store backing this generation, when any.
    pub store: Option<Arc<EntityStore>>,
    /// Deterministic IVF index over `store` (stage-one retrieval).
    pub ann: Option<Arc<IvfIndex>>,
}

impl Generation {
    /// Build and validate a generation: construct the retrieval index
    /// and prove a linker can be assembled — the same check
    /// server start-up performs, so a corrupt candidate is rejected
    /// here instead of failing per request after a swap.
    ///
    /// # Errors
    /// Index- or model-consistency errors from [`Generation::linker`].
    pub fn build(id: u64, source: String, mut model: ServeModel) -> Result<Generation> {
        let features = Arc::new(EntityFeatures::try_build(
            &model.vocab,
            &model.linker.input,
            &model.kb,
            &model.dictionary,
        )?);
        let index = Arc::new(DenseIndex::from_features(&model.bi, &features, &model.dictionary)?);
        model.attach_features(features);
        let qindex = QuantizedIndex::from_dense(&index, model.linker.quant)?.map(Arc::new);
        let generation = Generation { id, source, model, index, qindex, store: None, ann: None };
        generation.linker()?;
        Ok(generation)
    }

    /// Build a generation whose stage-one retrieval reads from a
    /// sharded [`EntityStore`] at `store_dir` instead of re-embedding
    /// the dictionary:
    ///
    /// - the quantized tables are assembled from the shard sections
    ///   byte-for-byte ([`EntityStore::quantized_index`]), so the swap
    ///   never re-quantizes;
    /// - the IVF index is loaded from `store_dir/IVF` when present and
    ///   otherwise built deterministically with a size-scaled config;
    /// - the entity feature table covers every store id and is built
    ///   last, after the IVF k-means has released its scratch, so it
    ///   adds nothing to the reload's peak memory;
    /// - the same throwaway-linker validation as [`Generation::build`]
    ///   runs, with the ANN source attached, before anything is
    ///   published.
    ///
    /// # Errors
    /// Corrupt store or IVF files ([`Error::Checkpoint`]), geometry
    /// mismatches between the store and the model, or linker validation
    /// failures.
    pub(crate) fn with_store(
        id: u64,
        source: String,
        mut model: ServeModel,
        store_dir: &Path,
    ) -> Result<Generation> {
        let store = Arc::new(EntityStore::open(store_dir)?);
        let out_dim = model.bi.config().out_dim;
        if store.dim() != out_dim {
            return Err(Error::shape(
                "Generation::with_store",
                format!("store dim == model out_dim ({out_dim})"),
                format!("store dim {}", store.dim()),
            ));
        }
        if store.len() > model.kb.len() {
            return Err(Error::Checkpoint(format!(
                "store holds {} entities but the model KB resolves only {}",
                store.len(),
                model.kb.len()
            )));
        }
        let qindex = Some(Arc::new(store.quantized_index()?));
        // Store-backed generations keep an *empty* dense index: every
        // retrieval goes through the ANN source, and `with_frozen`
        // accepts an empty index without a dimension check.
        let index =
            Arc::new(DenseIndex::try_from_vectors(Tensor::zeros(vec![0, out_dim]), Vec::new())?);
        let ivf_path = store_dir.join(IVF_FILE);
        let ann = if ivf_path.is_file() {
            Arc::new(IvfIndex::load(&ivf_path, Arc::clone(&store))?)
        } else {
            Arc::new(IvfIndex::build(
                Arc::clone(&store),
                Self::scaled_ivf(store.len()),
                Threads::default(),
            )?)
        };
        let served: Vec<EntityId> = (0..store.len() as u32).map(EntityId).collect();
        model.attach_features(Arc::new(EntityFeatures::try_build(
            &model.vocab,
            &model.linker.input,
            &model.kb,
            &served,
        )?));
        let generation =
            Generation { id, source, model, index, qindex, store: Some(store), ann: Some(ann) };
        generation.linker()?;
        Ok(generation)
    }

    /// The ANN candidate source, when this generation is store-backed.
    pub fn ann_source(&self) -> Option<Arc<dyn CandidateSource>> {
        self.ann.clone().map(|a| a as Arc<dyn CandidateSource>)
    }

    /// The one place a generation becomes a linker: assembled from
    /// `Arc` handles only (no tape, no parameter or index copies), with
    /// stage one routed through the IVF index when store-backed.
    /// Building a generation proves this succeeds, so a worker's call
    /// cannot fail in practice.
    ///
    /// # Errors
    /// Index- or model-consistency errors from
    /// [`TwoStageLinker::with_frozen`] and [`TwoStageLinker::with_ann`].
    pub fn linker(&self) -> Result<TwoStageLinker<'_>> {
        let m = &self.model;
        let linker = TwoStageLinker::with_frozen(
            &m.bi,
            &m.cross,
            &m.vocab,
            &m.kb,
            m.linker,
            Arc::clone(&self.index),
            self.qindex.clone(),
            m.frozen_bi().clone(),
            m.frozen_cross().clone(),
        )?;
        match self.ann_source() {
            Some(ann) => linker.with_ann(ann),
            None => Ok(linker),
        }
    }

    /// Size-scaled IVF defaults for a store shipped without a prebuilt
    /// `IVF` file: `nlist ≈ √n`, `nprobe = nlist / 8`, both clamped so
    /// tiny fixtures stay exact-ish and huge stores stay bounded.
    fn scaled_ivf(n: usize) -> IvfConfig {
        let nlist = (n as f64).sqrt().ceil() as usize;
        let nlist = nlist.clamp(1, 4096);
        let nprobe = (nlist / 8).max(1);
        IvfConfig { nlist, nprobe, ..IvfConfig::default() }
    }
}

/// Holds a registry's `reloading` flag and clears it on drop, so an
/// unwind out of a loader or an index build cannot strand the flag and
/// turn every later reload into "already in progress".
struct ReloadGuard<'a>(&'a AtomicBool);

impl<'a> ReloadGuard<'a> {
    fn acquire(flag: &'a AtomicBool) -> Result<Self> {
        if flag.swap(true, Ordering::AcqRel) {
            return Err(Error::Io("a model reload is already in progress".to_string()));
        }
        Ok(ReloadGuard(flag))
    }
}

impl Drop for ReloadGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The registry: current generation, swap bookkeeping, and an optional
/// loader for pulling new generations from disk.
pub struct ModelRegistry {
    current: Mutex<Arc<Generation>>,
    /// Mirror of `current.id` readable without the lock (workers check
    /// it between batches).
    generation_id: AtomicU64,
    loader: Option<ModelLoader>,
    source: Option<PathBuf>,
    /// Serializes reloads; a losing caller sheds instead of queueing.
    reloading: AtomicBool,
    swaps: AtomicU64,
    rejected: AtomicU64,
}

impl ModelRegistry {
    /// A registry serving `model` as generation 1, with no reload
    /// source (`POST /admin/reload` then answers 409).
    ///
    /// # Errors
    /// Validation errors from [`Generation::build`].
    pub fn new(model: ServeModel) -> Result<ModelRegistry> {
        Self::with_source(model, None, None)
    }

    /// A registry whose `POST /admin/reload` (and source watcher, when
    /// enabled) pulls candidate generations from `source` via `loader`.
    ///
    /// # Errors
    /// Validation errors from [`Generation::build`].
    pub fn with_loader(
        model: ServeModel,
        source: PathBuf,
        loader: ModelLoader,
    ) -> Result<ModelRegistry> {
        Self::with_source(model, Some(source), Some(loader))
    }

    fn with_source(
        model: ServeModel,
        source: Option<PathBuf>,
        loader: Option<ModelLoader>,
    ) -> Result<ModelRegistry> {
        let label = source
            .as_ref()
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|| "startup".to_string());
        let generation = Arc::new(Generation::build(1, label, model)?);
        Ok(ModelRegistry {
            generation_id: AtomicU64::new(generation.id),
            current: Mutex::new(generation),
            loader,
            source,
            reloading: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// The generation currently serving. In-flight requests keep their
    /// own `Arc`, so this is only a pointer clone.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&crate::sync::lock_recover(&self.current))
    }

    /// The current generation id without taking the lock.
    pub fn generation_id(&self) -> u64 {
        self.generation_id.load(Ordering::Acquire)
    }

    /// Successful swaps so far (excludes generation 1).
    pub(crate) fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Candidate generations rejected by validation so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Whether a reload source is configured.
    pub(crate) fn has_source(&self) -> bool {
        self.loader.is_some() && self.source.is_some()
    }

    /// The configured reload source path, when present.
    pub fn source(&self) -> Option<&Path> {
        self.source.as_deref()
    }

    /// The sharded-store directory a reload from `path` should bind,
    /// when one is present: `<dir>/store/MANIFEST` next to the
    /// checkpoint (where `<dir>` is `path` itself for a directory
    /// source, its parent otherwise).
    fn store_dir_for(path: &Path) -> Option<PathBuf> {
        let base = if path.is_dir() { path } else { path.parent()? };
        let dir = base.join(STORE_SUBDIR);
        dir.join(MANIFEST).is_file().then_some(dir)
    }

    /// Load a candidate from `path` (default: the configured source)
    /// through the registry's loader, then publish it. Corrupt or
    /// inconsistent candidates are rejected with the old generation
    /// still serving.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] for no configured loader or a corrupt
    /// candidate; [`Error::Io`] when a reload is already in flight.
    pub fn reload(&self, path: Option<&Path>) -> Result<u64> {
        let Some(loader) = self.loader.as_ref() else {
            return Err(Error::Checkpoint("no reload source configured".to_string()));
        };
        let Some(path) = path.or(self.source.as_deref()) else {
            return Err(Error::Checkpoint("no reload source configured".to_string()));
        };
        let _reloading = ReloadGuard::acquire(&self.reloading)?;
        // Load + validate run here, on the admin/watcher thread, with
        // the old generation still serving every request.
        loader(path)
            .inspect_err(|_| {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            })
            .and_then(|model| {
                self.publish_locked(
                    model,
                    path.to_string_lossy().into_owned(),
                    Self::store_dir_for(path),
                )
            })
    }

    /// The swap itself; caller holds the `reloading` flag.
    fn publish_locked(
        &self,
        model: ServeModel,
        source: String,
        store_dir: Option<PathBuf>,
    ) -> Result<u64> {
        let next_id = self.generation_id.load(Ordering::Acquire) + 1;
        let built = match store_dir {
            Some(dir) => Generation::with_store(next_id, source, model, &dir),
            None => Generation::build(next_id, source, model),
        };
        let generation = match built {
            Ok(g) => Arc::new(g),
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // Atomic swap: one pointer write under the lock. Readers that
        // already cloned the old Arc finish on the old generation.
        *crate::sync::lock_recover(&self.current) = generation;
        self.generation_id.store(next_id, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::Rng;
    use mb_core::linker::LinkerConfig;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
    use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
    use mb_encoders::input::build_vocab;

    fn model(seed: u64) -> ServeModel {
        model_of_world(91, seed)
    }

    fn model_of_world(world_seed: u64, seed: u64) -> ServeModel {
        let world = World::generate(WorldConfig::tiny(world_seed));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let bi_cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let cross_cfg = CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() };
        let bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(seed));
        let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(seed + 1));
        ServeModel::new(
            vocab,
            world.kb().clone(),
            world.kb().domain_entities(domain.id).to_vec(),
            bi,
            cross,
            LinkerConfig::default(),
            domain.name.clone(),
        )
    }

    #[test]
    fn starts_at_generation_one_and_publishes_monotonically() {
        let registry = ModelRegistry::new(model(1)).expect("valid model");
        assert_eq!(registry.generation_id(), 1);
        assert_eq!(registry.current().id, 1);
        let id =
            registry.publish_locked(model(2), "test".to_string(), None).expect("valid candidate");
        assert_eq!(id, 2);
        assert_eq!(registry.generation_id(), 2);
        assert_eq!(registry.current().id, 2);
        assert_eq!(registry.swaps(), 1);
        assert_eq!(registry.rejected(), 0);
    }

    #[test]
    fn old_generation_survives_for_holders_across_a_swap() {
        let registry = ModelRegistry::new(model(1)).expect("valid model");
        let held = registry.current();
        registry.publish_locked(model(2), "test".to_string(), None).expect("swap");
        // The held Arc still serves the old generation's KB and index.
        assert_eq!(held.id, 1);
        assert!(!held.model.dictionary.is_empty());
        assert_eq!(registry.current().id, 2);
    }

    /// The table a generation must carry: its own dictionary featurised
    /// with its own KB, vocab and truncation.
    fn expected_features(g: &Generation) -> EntityFeatures {
        let m = &g.model;
        EntityFeatures::try_build(&m.vocab, &m.linker.input, &m.kb, &m.dictionary)
            .expect("published dictionary is inside its kb")
    }

    #[test]
    fn each_generation_carries_the_feature_table_of_its_own_kb_and_vocab() {
        let registry = ModelRegistry::new(model_of_world(91, 1)).expect("valid model");
        let first = registry.current();
        // A different world: other entity text, other vocabulary ids.
        registry.publish_locked(model_of_world(92, 2), "test".to_string(), None).expect("swap");
        let second = registry.current();
        let table = |g: &Generation| Arc::clone(g.model.frozen_cross().features());
        assert_eq!(*table(&first), expected_features(&first));
        assert_eq!(*table(&second), expected_features(&second));
        assert_ne!(*table(&first), *table(&second), "the swap must not reuse the old table");

        // Coverage is checked when a linker is assembled, never on a
        // request: an index or an ANN backend over entities outside the
        // served dictionary is a typed error, as is pairing the table
        // with the previous generation's vocabulary.
        let m = &second.model;
        let assemble = |index: Arc<DenseIndex>| {
            TwoStageLinker::with_frozen(
                &m.bi,
                &m.cross,
                &m.vocab,
                &m.kb,
                m.linker,
                index,
                None,
                m.frozen_bi().clone(),
                m.frozen_cross().clone(),
            )
        };
        let outside: Vec<EntityId> =
            (0..m.kb.len() as u32).map(EntityId).filter(|id| !m.dictionary.contains(id)).collect();
        let foreign =
            Arc::new(DenseIndex::build(&m.bi, &m.vocab, &m.linker.input, &m.kb, &outside));
        let err = assemble(Arc::clone(&foreign)).err();
        assert!(matches!(err, Some(Error::NotFound(_))), "got {err:?}");
        let served = || second.linker().expect("the generation's own linker");
        let err = served().with_ann(foreign as Arc<dyn CandidateSource>).err();
        assert!(matches!(err, Some(Error::NotFound(_))), "got {err:?}");
        served()
            .with_ann(Arc::clone(&second.index) as Arc<dyn CandidateSource>)
            .expect("an ANN backend over the served dictionary itself");
        let stale = TwoStageLinker::with_frozen(
            &m.bi,
            &m.cross,
            &first.model.vocab,
            &m.kb,
            m.linker,
            Arc::clone(&second.index),
            None,
            m.frozen_bi().clone(),
            m.frozen_cross().clone(),
        );
        assert!(matches!(stale.err(), Some(Error::InvalidConfig(_))));
    }

    #[test]
    fn reload_without_a_source_is_rejected() {
        let registry = ModelRegistry::new(model(1)).expect("valid model");
        assert!(!registry.has_source());
        let err = registry.reload(None).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)), "got {err:?}");
        assert_eq!(registry.generation_id(), 1);
    }

    #[test]
    fn failing_loader_leaves_the_old_generation_serving() {
        let loader: ModelLoader =
            Box::new(|_| Err(Error::Checkpoint("corrupt candidate".to_string())));
        let registry = ModelRegistry::with_loader(model(1), PathBuf::from("nowhere.mbc"), loader)
            .expect("valid model");
        let err = registry.reload(None).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)), "got {err:?}");
        assert_eq!(registry.generation_id(), 1, "old generation keeps serving");
        assert_eq!(registry.rejected(), 1);
        assert_eq!(registry.swaps(), 0);
    }

    #[test]
    fn a_checkpoint_of_another_model_shape_is_rejected_and_reloads_keep_working() {
        use mb_core::pipeline::{BI_KEY, CROSS_KEY};
        use mb_tensor::checkpoint::Checkpoint;

        let world = World::generate(WorldConfig::tiny(91));
        let vocab = build_vocab(world.kb(), [], 1);
        let dictionary = world.kb().domain_entities(world.domain("TargetX").id).to_vec();
        let bi_cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let cross_cfg = CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() };
        // Valid sections (CRCs would pass) holding a bi-encoder of `dim`.
        let checkpoint_of = |dim: usize| {
            let cfg = BiEncoderConfig { emb_dim: dim, hidden: dim, out_dim: dim, ..bi_cfg };
            let bi = BiEncoder::new(&vocab, cfg, &mut Rng::seed_from_u64(3));
            let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(4));
            let mut ck = Checkpoint::new();
            ck.params.insert(BI_KEY.to_string(), bi.params().clone());
            ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
            ck
        };
        let (good, mis_shaped) = (checkpoint_of(16), checkpoint_of(8));
        let (kb, vocab) = (world.kb().clone(), vocab.clone());
        let loader: ModelLoader = Box::new(move |path| {
            let ck = if path.ends_with("mis-shaped.mbc") { &mis_shaped } else { &good };
            ServeModel::from_checkpoint(
                ck,
                vocab.clone(),
                kb.clone(),
                dictionary.clone(),
                "TargetX".to_string(),
                bi_cfg,
                cross_cfg,
                LinkerConfig::default(),
            )
        });
        let registry = ModelRegistry::with_loader(model(1), PathBuf::from("good.mbc"), loader)
            .expect("valid model");
        // Rejected like a corrupt candidate — an `Err`, not a panic
        // that would leave the reload flag set for good.
        let err = registry.reload(Some(Path::new("mis-shaped.mbc"))).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "got {err:?}");
        assert_eq!(registry.generation_id(), 1, "old generation keeps serving");
        assert_eq!((registry.rejected(), registry.swaps()), (1, 0));
        assert_eq!(registry.reload(None).expect("a good candidate after a bad one"), 2);
        assert_eq!((registry.rejected(), registry.swaps()), (1, 1));
    }
}
