//! The untraced pass of the three link workloads. All three share the
//! link fixture and differ in how the same linker is used: behind
//! `mb-serve` on a schedule, behind `mb-serve` back-to-back, or called
//! directly in batches over the exact flat scan.

use crate::fixture::{build_repeated, linker_for, LinkFixture};
use crate::oracle::Answer;
use crate::serve::{self, Reply};
use crate::stats::{self, paced_plan, Fnv, Sample};
use crate::{Metric, Outcome, Run, Workload};
use mb_core::linker::{LinkResult, TwoStageLinker};
use mb_datagen::LinkedMention;
use mb_encoders::retrieval::DenseIndex;
use mb_kb::EntityId;
use mb_serve::Generation;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// Mentions per `link_batch` call of the offline workload.
pub const OFFLINE_BATCH: usize = 32;
/// Mentions whose batch-32 result must equal their batch-1 result.
const OFFLINE_ORACLE: usize = 256;
/// Mentions over which retrieval recall is measured.
const RECALL_MENTIONS: usize = 512;
/// Tails as `(quantile, windows)`. Serve: p95 of each 2 s window (300
/// and ~1,050 samples), ten or more samples beyond it in every window.
/// Offline: the upper quartile of each 1 s window of ~30 `link_batch`
/// calls of ~33 ms, so seven beyond it per window, not ten. A higher
/// percentile needs longer windows, and p90 over thirds of the run
/// spread by 25 % from run to run whenever the box was busy for a few
/// seconds; this one spreads as the median does (2-4 %).
const SERVE_TAIL: (f64, usize) = (0.95, 5);
const OFFLINE_TAIL: (f64, usize) = (0.75, stats::WINDOWS);

/// Share of `reference`'s top-k that `candidate` also retrieves, over
/// `mentions`.
pub fn retrieval_recall(
    candidate: &TwoStageLinker<'_>,
    reference: &TwoStageLinker<'_>,
    mentions: &[LinkedMention],
) -> f64 {
    let (mut hit, mut total) = (0usize, 0usize);
    for m in mentions {
        let truth = reference.candidates(m);
        let got = candidate.candidates(m);
        hit += got.iter().filter(|(id, _)| truth.iter().any(|(t, _)| t == id)).count();
        total += truth.len();
    }
    hit as f64 / total.max(1) as f64
}

/// IVF top-64 against the flat scan of the same int8 tables.
pub fn ivf_recall(generation: &Generation, mentions: &[LinkedMention]) -> f64 {
    retrieval_recall(&linker_for(generation, true), &linker_for(generation, false), mentions)
}

/// The metrics every link workload reports from its timed operations.
/// `ops_per_sample` scales the completion rate (a `link_batch` call is
/// one sample of 32 mentions).
fn timing_metrics(
    run: &Run,
    setups: &[f64],
    samples: &[Sample],
    (tail_q, tail_windows): (f64, usize),
    ops_per_sample: usize,
    recall: f64,
    outcome: &mut Outcome,
) {
    let (p50, _) = stats::windowed_quantile(samples, run.seconds, stats::WINDOWS, 0.5);
    let (tail, fewest) = stats::windowed_quantile(samples, run.seconds, tail_windows, tail_q);
    if !stats::tail_resolved(fewest, tail_q) {
        outcome.notes.push(format!(
            "latency_tail_ms: the smallest window has {fewest} samples, {} beyond its p{}",
            stats::samples_beyond(fewest, tail_q),
            tail_q * 100.0
        ));
    }
    let rate = stats::windowed_rate(samples, run.seconds) * ops_per_sample as f64;
    outcome.metrics.extend([
        Metric::new("setup_s", stats::median(setups), "s"),
        Metric::new("latency_p50_ms", p50 * 1e3, "ms"),
        Metric::new("latency_tail_ms", tail * 1e3, "ms"),
        Metric::new("throughput_per_s", rate, "1/s"),
        Metric::new("recall_at_64", recall, "ratio"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ]);
}

/// `serve_paced` and `serve_saturated`.
pub fn serve(run: &Run, workload: Workload) -> Result<Outcome, String> {
    let (fixture, setups) = build_repeated(run.seed, run.link_scale());
    let LinkFixture { registry, pool, scratch: _scratch, .. } = fixture;
    let generation = registry.current();
    let server = serve::start(registry);
    let addr = server.addr();
    let requests = serve::encode_pool(&pool);
    let mut notes = Vec::new();

    // Warm-up with the workload's own traffic shape, discarded: fills
    // the service-time EWMA and, on the paced workload, the LRU.
    let replies: Vec<Reply> = if workload == Workload::ServePaced {
        let warm = paced_plan(run.seed ^ 0x3A3A, serve::PACED_RATE, run.warm_seconds(), pool.len());
        serve::drive_paced(addr, &warm, &requests)?;
        let plan = paced_plan(run.seed, serve::PACED_RATE, run.seconds, pool.len());
        let (replies, blocked) = serve::drive_paced(addr, &plan, &requests)?;
        if blocked * 100 > plan.len() as u64 {
            notes.push(format!(
                "unresolved: {blocked} of {} slots found their connection busy, so the loop was not open throughout",
                plan.len()
            ));
        }
        replies
    } else {
        // The warm-up draws from the middle of the pool, so the timed
        // requests are the same mentions whatever the warm-up served.
        let warm = AtomicUsize::new(pool.len() / 2);
        serve::drive_saturated(addr, &requests, &warm, run.warm_seconds())?;
        serve::drive_saturated(addr, &requests, &AtomicUsize::new(0), run.seconds)?
    };
    server.shutdown();

    let verdict = serve::verify(&replies, &pool, &generation);
    for why in &verdict.reasons {
        eprintln!("{}: {why}", workload.name());
    }
    let ok: Vec<Sample> = replies
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| Sample { at_s: r.at_s, latency_s: r.latency_s })
        .collect();
    let recall = ivf_recall(&generation, &pool[..RECALL_MENTIONS.min(pool.len())]);
    let mut outcome = Outcome::new(replies.len() as u64, verdict.failed, verdict.checksum);
    outcome.notes = notes;
    timing_metrics(run, &setups, &ok, SERVE_TAIL, 1, recall, &mut outcome);
    Ok(outcome)
}

/// Everything a `LinkResult` says, with scores as bit patterns.
fn bits(r: &LinkResult) -> (Option<EntityId>, Vec<(EntityId, u64)>, Vec<u64>) {
    (
        r.predicted,
        r.retrieved.iter().map(|&(id, s)| (id, s.to_bits())).collect(),
        r.rerank_scores.iter().map(|s| s.to_bits()).collect(),
    )
}

/// `link_offline`: `link_batch` in chunks of [`OFFLINE_BATCH`] over
/// distinct mentions, retrieval by the exact flat int8 scan.
pub fn offline(run: &Run) -> Result<Outcome, String> {
    let (fixture, setups) = build_repeated(run.seed, run.link_scale());
    let LinkFixture { registry, pool, vectors, scratch: _scratch, .. } = fixture;
    let generation = registry.current();
    let linker = linker_for(&generation, false);
    let chunk_at = |i: usize| {
        let at = (i * OFFLINE_BATCH) % (pool.len() - OFFLINE_BATCH + 1);
        &pool[at..at + OFFLINE_BATCH]
    };

    // Warm-up from the far end of the pool, so the timed mentions stay
    // unseen.
    let warm_started = Instant::now();
    let mut w = pool.len() / OFFLINE_BATCH;
    while warm_started.elapsed().as_secs_f64() < run.warm_seconds() {
        w -= 1;
        std::hint::black_box(linker.link_batch(chunk_at(w)).map_err(|e| e.to_string())?);
    }

    let mut samples: Vec<Sample> = Vec::new();
    let mut kept = Vec::new();
    let started = Instant::now();
    loop {
        let at_s = started.elapsed().as_secs_f64();
        if at_s >= run.seconds {
            break;
        }
        let chunk = chunk_at(samples.len());
        let t = Instant::now();
        let results = linker.link_batch(chunk).map_err(|e| e.to_string())?;
        samples.push(Sample { at_s, latency_s: t.elapsed().as_secs_f64() });
        if kept.len() < OFFLINE_ORACLE {
            kept.extend(results);
        } else {
            std::hint::black_box(results);
        }
    }
    let mentions = samples.len() * OFFLINE_BATCH;

    // Oracle: batching must not change a single bit of any result.
    let mut failed = 0u64;
    let mut sum = Fnv::new();
    for (m, batched) in pool.iter().zip(&kept) {
        let single = linker.link(m).map_err(|e| e.to_string())?;
        if bits(&single) != bits(batched) {
            failed += 1;
        }
        Answer::of(batched).checksum_into(&mut sum);
    }

    // Recall of the int8 scan against the exact f64 rows it quantised.
    let m = &generation.model;
    let ids = m.kb.entities().iter().map(|e| e.id).collect();
    let dense =
        DenseIndex::try_from_vectors(vectors, ids).map_err(|e| format!("exact index: {e}"))?;
    let exact = TwoStageLinker::with_frozen(
        &m.bi,
        &m.cross,
        &m.vocab,
        &m.kb,
        m.linker,
        Arc::new(dense),
        None,
        m.frozen_bi().clone(),
        m.frozen_cross().clone(),
    )
    .map_err(|e| format!("exact linker: {e}"))?;
    let recall = retrieval_recall(&linker, &exact, &pool[..RECALL_MENTIONS.min(pool.len())]);

    let mut outcome = Outcome::new(mentions as u64, failed, sum.0);
    timing_metrics(run, &setups, &samples, OFFLINE_TAIL, OFFLINE_BATCH, recall, &mut outcome);
    Ok(outcome)
}
