//! Kill/resume equivalence for the training pipeline: killing a run at
//! any step and resuming from its checkpoints must reproduce the
//! uninterrupted run bit for bit.
//!
//! The cheap test below sweeps a handful of kill points and runs in the
//! default suite; the exhaustive sweep over *every* kill point is
//! `#[ignore]`d (debug builds are too slow for it) and runs in release
//! as the CI fault-injection smoke stage:
//! `cargo test --release -p mb-core --test resume -- --include-ignored`.

use mb_common::storage::{MemStorage, NoBudget, Storage};
use mb_common::{Error, Rng};
use mb_core::checkpoint::{CheckpointConfig, CheckpointManager};
use mb_core::pipeline::{
    train, train_resumable, DataSource, MetaBlinkConfig, Method, TargetTask, TrainedLinker,
};
use mb_datagen::world::DomainRole;
use mb_datagen::{Dataset, DatasetConfig, LinkedMention};
use mb_encoders::input::build_vocab;
use mb_fault::KillAt;
use mb_nlg::generate::{generate_syn, train_source_rewriter};
use mb_nlg::rewriter::RewriterConfig;
use mb_nlg::SynDataset;
use mb_tensor::checkpoint::Checkpoint;
use mb_text::Vocab;
use std::path::{Path, PathBuf};

struct Fixture {
    ds: Dataset,
    vocab: Vocab,
    syn: SynDataset,
}

fn fixture() -> Fixture {
    let ds = Dataset::generate(DatasetConfig::tiny(59));
    let vocab = build_vocab(ds.world().kb(), [], 1);
    let mut rng = Rng::seed_from_u64(7);
    let source_mentions: Vec<(String, Vec<LinkedMention>)> = ds
        .world()
        .domains_with_role(DomainRole::Train)
        .iter()
        .map(|d| (d.name.clone(), ds.mentions(&d.name).mentions.clone()))
        .collect();
    let rw =
        train_source_rewriter(ds.world(), &source_mentions, RewriterConfig::default(), &mut rng);
    let domain = ds.world().domain("TargetX").clone();
    let syn = generate_syn(ds.world(), &domain, &rw, 150, &mut Rng::seed_from_u64(8));
    Fixture { ds, vocab, syn }
}

fn task(f: &Fixture) -> TargetTask<'_> {
    TargetTask {
        world: f.ds.world(),
        vocab: &f.vocab,
        domain: f.ds.world().domain("TargetX"),
        syn: &f.syn,
        syn_star: &f.syn,
        seed: &f.ds.split("TargetX").seed,
        general: &[],
    }
}

/// Small but complete: warm-up, meta phase with mid-stage checkpoints
/// (steps > every_n_steps), and seed mix all execute for both encoders.
fn test_cfg() -> MetaBlinkConfig {
    let mut cfg = MetaBlinkConfig::fast_test();
    cfg.bi_train.epochs = 2;
    cfg.bi_meta.steps = 12;
    cfg.bi_meta.syn_batch = 8;
    cfg.bi_meta.seed_batch = 6;
    cfg.cross_meta.steps = 8;
    cfg.cross_meta.syn_batch = 4;
    cfg.cross_train_cap = 60;
    cfg
}

fn ck_cfg() -> CheckpointConfig {
    let mut cfg = CheckpointConfig::new(PathBuf::from("ckpts"));
    cfg.every_n_steps = 5;
    cfg
}

fn mem_manager(
    mem: &MemStorage,
    budget: Box<dyn mb_common::storage::StepBudget>,
) -> CheckpointManager {
    CheckpointManager::with_parts(ck_cfg(), Box::new(mem.clone()), budget)
}

/// Bit-exact equality of two trained linkers: every parameter of both
/// encoders compared via `f64::to_bits`, plus the meta diagnostics.
fn assert_bit_identical(a: &TrainedLinker, b: &TrainedLinker, ctx: &str) {
    for (model, pa, pb) in
        [("bi", a.bi.params(), b.bi.params()), ("cross", a.cross.params(), b.cross.params())]
    {
        for ((na, ta), (nb, tb)) in pa.iter().zip(pb.iter()) {
            assert_eq!(na, nb, "{ctx}: {model} param name mismatch");
            let same = ta.data().len() == tb.data().len()
                && ta.data().iter().zip(tb.data()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{ctx}: {model} param {na:?} differs");
        }
    }
    assert_eq!(a.bi_meta_stats, b.bi_meta_stats, "{ctx}: bi meta stats differ");
    assert_eq!(a.cross_meta_stats, b.cross_meta_stats, "{ctx}: cross meta stats differ");
    assert_eq!(a.syn_len, b.syn_len, "{ctx}: syn_len differs");
}

/// Kill a run at tick `kill_at`, then resume over the same storage and
/// return the finished result.
fn kill_and_resume(f: &Fixture, cfg: &MetaBlinkConfig, kill_at: u64) -> TrainedLinker {
    let t = task(f);
    let mem = MemStorage::new();
    let mut dying = mem_manager(&mem, Box::new(KillAt::new(kill_at)));
    let err = train_resumable(&t, Method::MetaBlink, DataSource::SynSeed, cfg, &mut dying)
        .err()
        .unwrap_or_else(|| panic!("run with kill at {kill_at} should have died"));
    assert!(matches!(err, Error::Aborted(_)), "kill at {kill_at}: got {err:?}");
    let mut resumed = mem_manager(&mem, Box::new(NoBudget));
    train_resumable(&t, Method::MetaBlink, DataSource::SynSeed, cfg, &mut resumed)
        .unwrap_or_else(|e| panic!("resume after kill at {kill_at} failed: {e}"))
}

/// CRC-32 over everything training produces: both parameter sets and
/// both `MetaStats`, floats by bit pattern.
fn training_digest(m: &TrainedLinker) -> u32 {
    let mut bytes = Vec::new();
    for params in [m.bi.params(), m.cross.params()] {
        for (name, t) in params.iter() {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
    }
    for stats in [&m.bi_meta_stats, &m.cross_meta_stats] {
        let s = stats.as_ref().expect("MetaBLINK records meta stats");
        for counts in [&s.sampled, &s.selected, &vec![s.zero_weight_steps]] {
            bytes.extend(counts.iter().flat_map(|&c| (c as u64).to_le_bytes()));
        }
        bytes.extend(s.step_losses.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    mb_common::storage::crc32(&bytes)
}

#[test]
fn training_outputs_are_pinned() {
    // Captured at the commit before Algorithm 1 moved behind
    // `MetaModel` (four trainers → one `train_meta`); a change here is
    // a change of training arithmetic, sampling or fold order.
    const DIGEST: u32 = 0x0345_6ab2;
    let f = fixture();
    let model = train(&task(&f), Method::MetaBlink, DataSource::SynSeed, &test_cfg());
    assert_eq!(format!("{:#010x}", training_digest(&model)), format!("{DIGEST:#010x}"));
}

#[test]
fn uninterrupted_checkpointed_run_matches_plain_train() {
    let f = fixture();
    let t = task(&f);
    let cfg = test_cfg();
    let plain = train(&t, Method::MetaBlink, DataSource::SynSeed, &cfg);
    let mem = MemStorage::new();
    let mut mgr = mem_manager(&mem, Box::new(NoBudget));
    let managed = train_resumable(&t, Method::MetaBlink, DataSource::SynSeed, &cfg, &mut mgr)
        .expect("uninterrupted managed run");
    assert!(mgr.saves() >= 6, "expected boundary + mid-stage saves, got {}", mgr.saves());
    assert_bit_identical(&plain, &managed, "plain vs managed");
}

#[test]
fn resume_after_kill_is_bit_identical_sampled() {
    let f = fixture();
    let t = task(&f);
    let cfg = test_cfg();
    let baseline = train(&t, Method::MetaBlink, DataSource::SynSeed, &cfg);
    // Early (before any checkpoint), mid bi-meta, between stages, and
    // mid cross-meta kill points; the exhaustive sweep is the ignored
    // release-mode test below.
    for kill_at in [0, 7, 16, 21] {
        let resumed = kill_and_resume(&f, &cfg, kill_at);
        assert_bit_identical(&baseline, &resumed, &format!("kill at {kill_at}"));
    }
}

/// A checkpoint directory whose run was killed at tick `kill_at`
/// (`None`: ran to the end), with the newest generation decoded.
fn checkpoints_of(
    f: &Fixture,
    cfg: &MetaBlinkConfig,
    kill_at: Option<u64>,
) -> (MemStorage, PathBuf, Checkpoint) {
    let mem = MemStorage::new();
    let budget: Box<dyn mb_common::storage::StepBudget> = match kill_at {
        Some(at) => Box::new(KillAt::new(at)),
        None => Box::new(NoBudget),
    };
    let run = train_resumable(
        &task(f),
        Method::MetaBlink,
        DataSource::SynSeed,
        cfg,
        &mut mem_manager(&mem, budget),
    );
    assert_eq!(run.is_err(), kill_at.is_some());
    let dir = Path::new("ckpts");
    let newest = mem.clone().list(dir).expect("list").into_iter().max().expect("a generation");
    let path = dir.join(newest);
    let ck = Checkpoint::from_bytes(&mem.peek(&path).expect("bytes")).expect("intact");
    (mem, path, ck)
}

/// Resume over `mem` after rewriting its newest generation as `ck` —
/// CRC-valid bytes whose content lies — and return the error, which
/// must be the typed checkpoint error: not a panic, not a model.
fn resume_error(
    f: &Fixture,
    cfg: &MetaBlinkConfig,
    mem: &MemStorage,
    path: &Path,
    ck: &Checkpoint,
) -> String {
    mem.poke(path, ck.to_bytes().expect("serializable"));
    let mut mgr = mem_manager(mem, Box::new(NoBudget));
    match train_resumable(&task(f), Method::MetaBlink, DataSource::SynSeed, cfg, &mut mgr) {
        Err(Error::Checkpoint(msg)) => msg,
        Err(other) => panic!("expected Error::Checkpoint, got {other:?}"),
        Ok(_) => panic!("resumed from a checkpoint that does not describe this run"),
    }
}

#[test]
fn stage_cursor_outside_the_pipeline_is_a_checkpoint_error() {
    let (f, cfg) = (fixture(), test_cfg());
    let (mem, path, finished) = checkpoints_of(&f, &cfg, None);
    assert_eq!(finished.meta["stage"], "7");
    // No stage guard matches these: every stage would be skipped and
    // the freshly initialised encoders returned as the trained linker.
    for stage in ["9", "0", "18446744073709551615"] {
        let mut ck = finished.clone();
        ck.meta.insert("stage".into(), stage.into());
        let msg = resume_error(&f, &cfg, &mem, &path, &ck);
        assert!(msg.contains("stage cursor"), "stage {stage}: {msg}");
    }
}

#[test]
fn resumed_stage_without_both_models_is_a_checkpoint_error() {
    let (f, cfg) = (fixture(), test_cfg());
    let (mem, path, finished) = checkpoints_of(&f, &cfg, None);
    for key in ["bi", "cross"] {
        let mut ck = finished.clone();
        ck.params.remove(key);
        let msg = resume_error(&f, &cfg, &mem, &path, &ck);
        assert!(msg.contains(key) && msg.contains("parameters"), "without {key}: {msg}");
    }
}

#[test]
fn resumed_meta_stats_must_be_those_of_this_run() {
    let (f, cfg) = (fixture(), test_cfg());
    let check = |kill_at: Option<u64>, expect: &str, edit: &dyn Fn(&mut Checkpoint)| {
        let (mem, path, mut ck) = checkpoints_of(&f, &cfg, kill_at);
        assert_eq!(ck.meta.contains_key("step"), kill_at.is_some(), "{expect}: wrong generation");
        edit(&mut ck);
        let msg = resume_error(&f, &cfg, &mem, &path, &ck);
        assert!(msg.contains(expect), "expected {expect:?} in {msg:?}");
    };
    fn vector<'a>(ck: &'a mut Checkpoint, name: &str) -> &'a mut Vec<f64> {
        ck.vectors.get_mut(name).unwrap_or_else(|| panic!("checkpoint has no {name}"))
    }
    // Mid bi-meta (2 warm-up epochs + 6 steps, saved at step 5): a
    // count vector shorter than the pool used to index out of range.
    let mid = Some(8);
    check(mid, "selected covers 1 examples", &|ck| vector(ck, "bi_selected").truncate(1));
    check(mid, "6 step losses for 5", &|ck| vector(ck, "bi_step_losses").push(0.5));
    check(mid, "bad step cursor \"13\"", &|ck| {
        ck.meta.insert("step".into(), "13".into());
    });
    check(mid, "lacks optimizer state", &|ck| {
        ck.optim.remove("bi");
    });
    // Finished run: stats for another pool, and counts that are not
    // counts, used to be carried into the result.
    check(None, "bi meta stats: sampled covers", &|ck| {
        vector(ck, "bi_sampled").pop();
        vector(ck, "bi_selected").pop();
    });
    check(None, "cross meta stats: sampled covers", &|ck| {
        vector(ck, "cross_sampled").push(0.0);
        vector(ck, "cross_selected").push(0.0);
    });
    check(None, "selected holds -1", &|ck| vector(ck, "bi_selected")[0] = -1.0);
    check(None, "sampled holds 1.5", &|ck| vector(ck, "cross_sampled")[0] = 1.5);
    check(None, "more often than sampled", &|ck| {
        let sampled = vector(ck, "bi_sampled")[0];
        vector(ck, "bi_selected")[0] = sampled + 1.0;
    });
    check(None, "7 step losses for 8", &|ck| {
        vector(ck, "cross_step_losses").pop();
    });
    check(None, "zero-weight step count", &|ck| {
        ck.meta.insert("bi_zero_weight_steps".into(), "13".into());
    });
}

#[test]
#[ignore = "exhaustive sweep; run in release via scripts/ci.sh fault stage"]
fn resume_after_kill_at_every_step_is_bit_identical() {
    let f = fixture();
    let t = task(&f);
    let cfg = test_cfg();
    let baseline = train(&t, Method::MetaBlink, DataSource::SynSeed, &cfg);

    // Sweep every kill point. The loop needs no precomputed tick
    // total: KillAt::new(n) aborts the run for every real kill point,
    // and the first n at which the run completes is one past the last.
    let mut n = 0;
    loop {
        let memn = MemStorage::new();
        let mut dying = CheckpointManager::with_parts(
            ck_cfg(),
            Box::new(memn.clone()),
            Box::new(KillAt::new(n)),
        );
        match train_resumable(&t, Method::MetaBlink, DataSource::SynSeed, &cfg, &mut dying) {
            Err(e) => {
                assert!(matches!(e, Error::Aborted(_)), "kill at {n}: got {e:?}");
                let mut resumed = CheckpointManager::with_parts(
                    ck_cfg(),
                    Box::new(memn.clone()),
                    Box::new(NoBudget),
                );
                let done =
                    train_resumable(&t, Method::MetaBlink, DataSource::SynSeed, &cfg, &mut resumed)
                        .unwrap_or_else(|e| panic!("resume after kill at {n} failed: {e}"));
                assert_bit_identical(&baseline, &done, &format!("kill at {n}"));
                n += 1;
            }
            Ok(done) => {
                // KillAt::new(n) never fired: n is one past the last
                // kill point, the sweep is complete.
                assert_bit_identical(&baseline, &done, "past-the-end kill");
                assert!(n > 20, "suspiciously few kill points: {n}");
                break;
            }
        }
    }
}
