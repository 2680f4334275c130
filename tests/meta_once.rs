//! Algorithm 1 is stated once (`mb_core::reweight::{meta_step,
//! train_meta}` over `MetaModel`); every other way of reaching it must
//! be that statement, bit for bit: the two `*_meta_step` names the
//! frozen benchmark calls, and the loop with and without a checkpoint
//! manager.

use mb_common::storage::{MemStorage, NoBudget};
use mb_common::Rng;
use mb_core::checkpoint::{CheckpointConfig, CheckpointManager, MetaResume};
use mb_core::reweight::{
    biencoder_meta_step, crossencoder_meta_step, meta_step, train_meta, MetaConfig, MetaModel,
};
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, entity_bag, title_bag, InputConfig, TrainPair};
use mb_par::Threads;
use mb_tensor::optim::Adam;
use mb_tensor::Params;

struct Fixture {
    bi: BiEncoder,
    cross: CrossEncoder,
    pairs: Vec<TrainPair>,
    sets: Vec<CandidateSet>,
}

/// Both encoders over one tiny world: 48 featurized mentions, and for
/// each a candidate set of its gold plus five random others.
fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(23));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(11);
    let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 48, &mut rng);
    let icfg = InputConfig::default();
    let pairs: Vec<TrainPair> =
        ms.mentions.iter().map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m)).collect();
    let ids = world.kb().domain_entities(domain.id);
    let sets = pairs
        .iter()
        .map(|p| {
            let mut cands = vec![p.gold];
            while cands.len() < 6 {
                let c = *rng.choose(ids);
                if !cands.contains(&c) {
                    cands.push(c);
                }
            }
            let bags = |id: &mb_kb::EntityId| {
                let e = world.kb().entity(*id);
                (entity_bag(&vocab, &icfg, e), title_bag(&vocab, e))
            };
            CandidateSet::new(p, cands.iter().map(bags).collect(), Some(0))
        })
        .collect();
    let bi = BiEncoder::new(
        &vocab,
        BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
        &mut Rng::seed_from_u64(1),
    );
    let cross = CrossEncoder::new(
        &vocab,
        CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
        &mut Rng::seed_from_u64(2),
    );
    Fixture { bi, cross, pairs, sets }
}

fn param_bits(params: &Params) -> Vec<u64> {
    params.iter().flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits())).collect()
}

/// Everything a step produces, floats by bit pattern.
type StepBits = (Vec<u64>, Vec<usize>, u64, Vec<u64>);

/// Three consecutive steps from a clone of `model` through `step`;
/// the last step's outputs and the parameters it leaves.
fn three_steps<M: MetaModel + Clone>(
    model: &M,
    mut step: impl FnMut(&mut M, &mut Adam, &mut Rng) -> (Vec<f64>, Vec<usize>, f64),
) -> StepBits {
    let (mut m, mut opt, mut rng) = (model.clone(), Adam::new(1e-2), Rng::seed_from_u64(7));
    step(&mut m, &mut opt, &mut rng);
    step(&mut m, &mut opt, &mut rng);
    let (w, idx, loss) = step(&mut m, &mut opt, &mut rng);
    (w.iter().map(|v| v.to_bits()).collect(), idx, loss.to_bits(), param_bits(m.params()))
}

#[test]
fn each_shim_is_the_generic_step() {
    let f = fixture();
    let (syn, seed) = f.pairs.split_at(32);
    let (syn_sets, seed_sets) = f.sets.split_at(32);
    for threads in (1..=4).map(Threads::new) {
        let cfg = MetaConfig {
            syn_batch: 10,
            seed_batch: 6,
            seed_mix: 0.3,
            normalize_example_grads: true,
            shared_params_only: true,
            threads,
            ..MetaConfig::default()
        };
        let generic = three_steps(&f.bi, |m, opt, rng| meta_step(m, syn, seed, opt, &cfg, rng));
        let shim = three_steps(&f.bi, |m, opt, rng| {
            biencoder_meta_step(m, syn, seed, opt, 10, 6, 0.3, true, true, threads, rng)
        });
        assert_eq!(generic, shim, "bi-encoder, {threads:?}");

        let generic =
            three_steps(&f.cross, |m, opt, rng| meta_step(m, syn_sets, seed_sets, opt, &cfg, rng));
        let shim = three_steps(&f.cross, |m, opt, rng| {
            crossencoder_meta_step(
                m, syn_sets, seed_sets, opt, 10, 6, 0.3, true, true, threads, rng,
            )
        });
        assert_eq!(generic, shim, "cross-encoder, {threads:?}");
    }
}

/// `train_meta` with no manager against `train_meta` under a manager
/// that is never killed: same parameters, same statistics, and the
/// managed run did write its mid-stage checkpoints.
fn assert_manager_changes_nothing<M: MetaModel + Clone>(
    model: &M,
    syn: &[M::Example],
    seed_set: &[M::Example],
    key: &str,
) {
    let cfg = MetaConfig { steps: 12, syn_batch: 8, seed_batch: 6, seed: 5, ..Default::default() };
    let mut plain = model.clone();
    let plain_stats = train_meta(&mut plain, syn, seed_set, &mut Adam::new(cfg.lr), &cfg, None)
        .expect("nothing to fail without a manager");

    let ck_cfg = CheckpointConfig { every_n_steps: 5, ..CheckpointConfig::new("ckpts") };
    let mut mgr =
        CheckpointManager::with_parts(ck_cfg, Box::new(MemStorage::new()), Box::new(NoBudget));
    let mut ctl = MetaResume { mgr: &mut mgr, stage: 2, model_key: key, resume: None };
    let mut managed = model.clone();
    let managed_stats =
        train_meta(&mut managed, syn, seed_set, &mut Adam::new(cfg.lr), &cfg, Some(&mut ctl))
            .expect("uninterrupted managed run");

    assert_eq!(mgr.saves(), 2, "{key}: saves after steps 5 and 10");
    assert_eq!(param_bits(plain.params()), param_bits(managed.params()), "{key}: parameters");
    assert_eq!(plain_stats, managed_stats, "{key}: stats");
    assert_eq!(plain_stats.step_losses.len(), 12);
}

#[test]
fn the_loop_is_the_same_with_and_without_a_manager() {
    let f = fixture();
    assert_manager_changes_nothing(&f.bi, &f.pairs[..32], &f.pairs[32..], "bi");
    assert_manager_changes_nothing(&f.cross, &f.sets[..32], &f.sets[32..], "cross");
}
