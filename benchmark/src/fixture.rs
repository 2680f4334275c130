//! The link fixture shared by the three link workloads: a generated
//! world, a seed-initialised two-stage model, every entity embedded
//! and written through `StoreBuilder`, and a `ModelRegistry` whose
//! generation 2 is store-backed exactly as `POST /admin/reload` makes
//! it. Building it is the workloads' set-up; nothing here is timed as
//! part of a measured region.

use mb_common::storage::DiskStorage;
use mb_common::Rng;
use mb_core::linker::{LinkerConfig, TwoStageLinker};
use mb_core::pipeline::{BI_KEY, CROSS_KEY};
use mb_datagen::mentions::generate_one;
use mb_datagen::world::{DomainRole, DomainSpec};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, entity_bag};
use mb_serve::registry::STORE_SUBDIR;
use mb_serve::{Generation, ModelLoader, ModelRegistry, ServeModel};
use mb_store::{StoreBuilder, StoreConfig, StoreRecord};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::quant::QuantMode;
use mb_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the system under test: the world, the model and (for
/// onboarding) the dataset are the same in every run, as a deployed
/// KB and checkpoint are; `--seed` draws the traffic and the training
/// randomness. A world per seed moved IVF recall by ±10 % and serve
/// latency by ±4 % between seeds, which no bound could sit under.
pub const SYSTEM_SEED: u64 = 2022;
/// Embedding width of both encoders (the table harnesses' model size).
pub const DIM: usize = 32;
const TRAIN_ENTITIES: usize = 400;
const SHARD_CAPACITY: usize = 8192;

/// Fixture size: the full benchmark or the `--smoke` miniature.
#[derive(Debug, Clone, Copy)]
pub struct LinkScale {
    /// Entities in the served `Test` domain.
    pub entities: usize,
    /// Generated mentions the workloads draw from.
    pub pool: usize,
}

impl LinkScale {
    pub const FULL: LinkScale = LinkScale { entities: 100_000, pool: 40_000 };
    pub const SMOKE: LinkScale = LinkScale { entities: 2_000, pool: 4_000 };
}

/// A scratch directory inside the checkout, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = crate::results_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/results");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall time of the set-up and of the stages the traced pass reports,
/// in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub store_build_s: f64,
    pub reload_s: f64,
    pub total_s: f64,
}

pub struct LinkFixture {
    pub registry: ModelRegistry,
    /// `[entities, DIM]` exact bi-encoder rows, in entity-id order (the
    /// store holds their int8 quantisation).
    pub vectors: Tensor,
    pub pool: Vec<LinkedMention>,
    pub times: SetupTimes,
    pub scratch: Scratch,
}

impl LinkFixture {
    /// Build the system from [`SYSTEM_SEED`] and the mention pool from
    /// `seed`. Timings depend on the parameters only through the spread
    /// of scores, so the encoders are seed-initialised, not trained
    /// (`onboard_domain` measures model quality).
    pub fn build(seed: u64, scale: LinkScale) -> LinkFixture {
        let started = Instant::now();
        let mut times = SetupTimes::default();
        let scratch = Scratch::new("link");

        let world = World::generate(WorldConfig {
            seed: SYSTEM_SEED,
            general_vocab: 600,
            ambiguity_rate: 0.12,
            domains: vec![
                DomainSpec::new("Train", DomainRole::Train, TRAIN_ENTITIES, 0, 0.4),
                DomainSpec::new("Test", DomainRole::Test, scale.entities, 0, 0.6),
            ],
        });
        let vocab = build_vocab(world.kb(), [], 1);

        let rng = Rng::seed_from_u64(SYSTEM_SEED ^ 0x11F1);
        let bi_cfg =
            BiEncoderConfig { emb_dim: DIM, hidden: DIM, out_dim: DIM, ..Default::default() };
        let cross_cfg = CrossEncoderConfig { emb_dim: DIM, hidden: DIM, ..Default::default() };
        let bi = BiEncoder::new(&vocab, bi_cfg, &mut rng.split(1));
        let cross = CrossEncoder::new(&vocab, cross_cfg, &mut rng.split(2));
        let linker_cfg = LinkerConfig::default();

        // Embed every entity (store ids are KB ids) and stream the rows
        // through the store builder, one shard's worth at a time.
        let frozen = bi.freeze(QuantMode::Exact);
        let store_cfg =
            StoreConfig { shard_capacity: SHARD_CAPACITY, dim: DIM, quant: QuantMode::Int8 };
        let mut builder = StoreBuilder::create(&scratch.0.join(STORE_SUBDIR), store_cfg)
            .expect("create store builder");
        let mut rows: Vec<f64> = Vec::with_capacity(world.kb().len() * DIM);
        for chunk in world.kb().entities().chunks(SHARD_CAPACITY) {
            let bags: Vec<Vec<u32>> =
                chunk.iter().map(|e| entity_bag(&vocab, &linker_cfg.input, e)).collect();
            let emb = frozen.embed_entities_batch(&bags);
            let t = Instant::now();
            for (i, e) in chunk.iter().enumerate() {
                builder
                    .push(StoreRecord {
                        title: e.title.clone(),
                        description: e.description.clone(),
                        vector: emb.row(i).to_vec(),
                    })
                    .expect("push entity into store");
            }
            times.store_build_s += t.elapsed().as_secs_f64();
            rows.extend_from_slice(emb.data());
        }
        let t = Instant::now();
        builder.finish().expect("finish store");
        times.store_build_s += t.elapsed().as_secs_f64();
        let vectors = Tensor::from_vec(vec![world.kb().len(), DIM], rows);

        // A v2 checkpoint beside store/ is what a reload source looks
        // like on disk.
        let checkpoint = scratch.0.join("model.mbc");
        let mut ck = Checkpoint::new();
        ck.params.insert(BI_KEY.to_string(), bi.params().clone());
        ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
        ck.save(&mut DiskStorage::new(), &checkpoint).expect("write checkpoint");

        // Generation 1 is dictionary-backed and only bootstraps the
        // registry, so it gets the small Train domain; generation 2
        // retrieves from the store over every entity.
        let dictionary = world.kb().domain_entities(world.domain("Train").id).to_vec();
        let model = ServeModel::new(
            vocab.clone(),
            world.kb().clone(),
            dictionary.clone(),
            bi,
            cross,
            linker_cfg,
            "Test".to_string(),
        );
        let kb = world.kb().clone();
        let loader: ModelLoader = Box::new(move |path: &Path| {
            let ck = Checkpoint::load(&mut DiskStorage::new(), path)?;
            ServeModel::from_checkpoint(
                &ck,
                vocab.clone(),
                kb.clone(),
                dictionary.clone(),
                "Test".to_string(),
                bi_cfg,
                cross_cfg,
                linker_cfg,
            )
        });
        let registry =
            ModelRegistry::with_loader(model, checkpoint, loader).expect("valid start-up model");
        let t = Instant::now();
        let id = registry.reload(None).expect("store-backed reload");
        times.reload_s = t.elapsed().as_secs_f64();
        assert_eq!(id, 2, "the reload publishes generation 2");
        assert!(registry.current().ann.is_some(), "generation 2 is store-backed");

        // Mentions of uniformly drawn Test entities (`generate_mentions`
        // scans the popularity table per draw, which is quadratic here).
        let test = world.domain("Test").clone();
        let ids = world.kb().domain_entities(test.id);
        let mut mrng = Rng::seed_from_u64(seed ^ 0x9001);
        let pool = (0..scale.pool)
            .map(|_| generate_one(&world, &test, ids[mrng.below(ids.len())], &mut mrng))
            .collect();

        times.total_s = started.elapsed().as_secs_f64();
        LinkFixture { registry, vectors, pool, times, scratch }
    }

    /// Where the fixture's store lives.
    pub fn store_dir(&self) -> PathBuf {
        self.scratch.0.join(STORE_SUBDIR)
    }
}

/// The linker a serve worker assembles for `generation`: IVF retrieval
/// when `ann` is set, else the exact flat scan over the store's
/// quantised tables.
pub fn linker_for(generation: &Generation, ann: bool) -> TwoStageLinker<'_> {
    let m = &generation.model;
    let linker = TwoStageLinker::with_frozen(
        &m.bi,
        &m.cross,
        &m.vocab,
        &m.kb,
        m.linker,
        Arc::clone(&generation.index),
        generation.qindex.clone(),
        m.frozen_bi().clone(),
        m.frozen_cross().clone(),
    )
    .expect("publish-validated generation");
    match generation.ann_source() {
        Some(source) if ann => linker.with_ann(source).expect("publish-validated ann source"),
        _ => linker,
    }
}

/// Build the fixture [`crate::SETUP_REPEATS`] times and keep the last;
/// returns it with every build's wall time (`setup_s` is their median).
pub fn build_repeated(seed: u64, scale: LinkScale) -> (LinkFixture, Vec<f64>) {
    let mut fixture = LinkFixture::build(seed, scale);
    let mut walls = vec![fixture.times.total_s];
    for _ in 1..crate::SETUP_REPEATS {
        // Drop first: two fixtures would share one scratch directory.
        drop(fixture);
        fixture = LinkFixture::build(seed, scale);
        walls.push(fixture.times.total_s);
    }
    (fixture, walls)
}
