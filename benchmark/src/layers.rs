//! The traced pass of the link layers: every stage of `link_batch` is
//! called through its own public function with a span around it, then
//! `link_batch` itself runs on the same mentions so the stage sum can
//! be reconciled against the whole. The serve and store layers are
//! timed the same way, from outside.

use crate::client::{link_body, Conn, Scrape, HEALTHZ};
use crate::fixture::{linker_for, LinkFixture, SetupTimes};
use crate::link::{ivf_recall, OFFLINE_BATCH};
use crate::serve::{self, Reply};
use crate::stats::{self, paced_plan};
use crate::trace::Tracer;
use crate::{Metric, Run, Workload};
use mb_datagen::LinkedMention;
use mb_encoders::input::mention_bag;
use mb_encoders::retrieval::CandidateSource;
use mb_par::Threads;
use mb_serve::http::{read_request, HttpLimits};
use mb_serve::{json, Generation};
use mb_store::{EntityStore, IvfConfig, IvfIndex};
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// How a workload uses the linker: the `link_batch` size its layers
/// are measured at, and whether stage one is the flat scan.
fn shape(workload: Workload) -> (usize, bool) {
    match workload {
        // One request per drained batch at 150 req/s.
        Workload::ServePaced => (1, false),
        // Two closed-loop clients fill batches of two.
        Workload::ServeSaturated => (serve::CLIENTS, false),
        Workload::LinkOffline => (OFFLINE_BATCH, true),
        // `TrainedLinker::evaluate` links in chunks of 32.
        Workload::OnboardDomain => (OFFLINE_BATCH, false),
    }
}

/// Stage-by-stage `link_batch` over `mentions` at the workload's batch
/// size. µs per mention, by span name.
fn link_stages(
    tr: &mut Tracer,
    generation: &Generation,
    mentions: &[LinkedMention],
    workload: Workload,
) -> Vec<Metric> {
    let (batch, flat_chain) = shape(workload);
    let model = &generation.model;
    let k = model.linker.k;
    let ann = generation.ann.as_ref().expect("store-backed generation");
    let qindex = generation.qindex.as_ref().expect("store-backed generation");
    let linker = linker_for(generation, !flat_chain);
    let single = Threads::single();
    // Lazy set-up (first-touch pages, the linker's first call) is not a
    // layer: let one untimed call pay it.
    std::hint::black_box(linker.link_batch(&mentions[..batch.min(mentions.len())]))
        .expect("validated linker");
    for chunk in mentions.chunks(batch) {
        let root = tr.begin("link.staged", 0);
        let bags: Vec<Vec<u32>> = tr.span("text.mention_bag", root, || {
            chunk.iter().map(|m| mention_bag(&model.vocab, &model.linker.input, m)).collect()
        });
        let queries =
            tr.span("encoders.embed", root, || model.frozen_bi().embed_mentions_batch(&bags));
        // The workload's own stage one sits in the chain; the other
        // backend is timed after it, so its table scan cannot chill
        // the caches of the stages that follow.
        let (own, other) = if flat_chain {
            ("encoders.flat_topk", "store.ivf_topk")
        } else {
            ("store.ivf_topk", "encoders.flat_topk")
        };
        let retrieve = |tr: &mut Tracer, name: &'static str, parent: u32| {
            tr.span(name, parent, || {
                if name == "store.ivf_topk" {
                    ann.top_k_batch(&queries, k, single)
                } else {
                    qindex.top_k_batch(&queries, k, single)
                }
            })
            .expect("validated retrieval backend")
        };
        let retrieved = retrieve(tr, own, root);
        let sets: Vec<_> = tr.span("core.candidate_set", root, || {
            chunk.iter().zip(&retrieved).map(|(m, r)| linker.candidate_set(m, r)).collect()
        });
        tr.span("encoders.rerank", root, || model.frozen_cross().score_batch(&sets));
        tr.end(root);
        retrieve(tr, other, 0);
        tr.span("core.link_batch", 0, || linker.link_batch(chunk)).expect("validated linker");
    }
    let n = mentions.len() as f64;
    let us = |name: &str| tr.total_s(name) / n * 1e6;
    let retrieval = if flat_chain { "encoders.flat_topk" } else { "store.ivf_topk" };
    let chain: f64 =
        ["text.mention_bag", "encoders.embed", retrieval, "core.candidate_set", "encoders.rerank"]
            .iter()
            .map(|s| us(s))
            .sum();
    let whole = us("core.link_batch");
    let residual = (whole - chain) / whole;
    if residual.abs() > 0.15 {
        eprintln!(
            "{}: link stages sum to {chain:.1}us against {whole:.1}us for link_batch: unresolved",
            workload.name()
        );
    }
    let scanned = qindex.bytes() as f64 * n;
    vec![
        Metric::new("text.mention_bag_us", us("text.mention_bag"), "us"),
        Metric::new("encoders.embed_us", us("encoders.embed"), "us"),
        Metric::new("store.ivf_topk_us", us("store.ivf_topk"), "us"),
        Metric::new("encoders.flat_topk_us", us("encoders.flat_topk"), "us"),
        Metric::new(
            "encoders.flat_scan_gbps",
            scanned / tr.total_s("encoders.flat_topk") / 1e9,
            "GB/s",
        ),
        Metric::new("core.candidate_set_us", us("core.candidate_set"), "us"),
        Metric::new("encoders.rerank_us", us("encoders.rerank"), "us"),
        Metric::new("core.link_batch_us", whole, "us"),
        Metric::new("core.link_residual_ratio", residual, "ratio"),
    ]
}

/// The reload path's parts, each called on the fixture's store
/// directory the way `Generation::with_store` calls them.
fn store_stages(
    tr: &mut Tracer,
    dir: &Path,
    generation: &Generation,
    times: &SetupTimes,
) -> Vec<Metric> {
    let store =
        Arc::new(tr.span("store.open", 0, || EntityStore::open(dir)).expect("fixture store"));
    tr.span("store.quantized_index", 0, || store.quantized_index()).expect("fixture tables");
    let ann = generation.ann.as_ref().expect("store-backed generation");
    let cfg = IvfConfig { nlist: ann.nlist(), nprobe: ann.nprobe(), ..IvfConfig::default() };
    tr.span("store.ivf_build", 0, || IvfIndex::build(Arc::clone(&store), cfg, Threads::default()))
        .expect("fixture ivf");
    vec![
        Metric::new("store.build_s", times.store_build_s, "s"),
        Metric::new("store.open_s", tr.total_s("store.open"), "s"),
        Metric::new("store.quantized_index_s", tr.total_s("store.quantized_index"), "s"),
        Metric::new("store.ivf_build_s", tr.total_s("store.ivf_build"), "s"),
        Metric::new("serve.reload_s", times.reload_s, "s"),
    ]
}

/// Median round trip of `raw` on one keep-alive connection, seconds.
fn rtt_p50(conn: &mut Conn, requests: impl Iterator<Item = Vec<u8>>) -> Result<f64, String> {
    let mut rtts = Vec::new();
    for raw in requests {
        let t = std::time::Instant::now();
        let (status, _) = conn.exchange(&raw)?;
        if status != 200 {
            return Err(format!("probe answered {status}"));
        }
        rtts.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&rtts))
}

/// The serve layers: a short pass of the workload's traffic shape
/// (open loop unless the workload is the closed one) scraped from
/// `/metrics`, then the socket floor and the wait a lone request pays.
fn serve_stages(
    tr: &mut Tracer,
    run: &Run,
    workload: Workload,
    fixture: LinkFixture,
    link_batch1_us: f64,
) -> Result<Vec<Metric>, String> {
    let LinkFixture { registry, pool, scratch: _scratch, .. } = fixture;
    let server = serve::start(registry);
    let addr = server.addr();
    let requests = serve::encode_pool(&pool);
    let seconds = run.trace_pass_seconds();

    let (replies, blocked): (Vec<Reply>, u64) = if workload == Workload::ServeSaturated {
        let next = AtomicUsize::new(0);
        (serve::drive_saturated(addr, &requests, &next, seconds)?, 0)
    } else {
        let plan = paced_plan(run.seed, serve::PACED_RATE, seconds, pool.len());
        serve::drive_paced(addr, &plan, &requests)?
    };
    let scrape = Scrape::fetch(addr)?;
    let late = stats::sorted(replies.iter().map(|r| r.late_s).collect());

    // Parsing cost of the recorded request bytes, outside the server.
    let sample = &requests[..requests.len().min(2048)];
    for raw in sample {
        tr.span("serve.http_parse", 0, || {
            read_request(&mut raw.as_slice(), &HttpLimits::default())
        })
        .map_err(|e| format!("recorded request does not parse: {e}"))?;
    }
    for m in &pool[..sample.len()] {
        let body = link_body(m);
        tr.span("serve.json_parse", 0, || json::parse(body.as_bytes()))?;
    }

    // One unloaded client: /healthz is the socket + HTTP floor; what
    // /link adds beyond it and the linker itself is linger + queueing.
    let mut conn = Conn::open(addr)?;
    let healthz = rtt_p50(&mut conn, (0..500).map(|_| HEALTHZ.to_vec()))?;
    let fresh = requests.iter().rev().take(300).cloned();
    let link = rtt_p50(&mut conn, fresh)?;
    drop(conn);
    server.shutdown();

    let per = |name: &str| tr.total_s(name) / tr.count(name).max(1) as f64 * 1e6;
    Ok(vec![
        Metric::new("serve.http_parse_us", per("serve.http_parse"), "us"),
        Metric::new("serve.json_parse_us", per("serve.json_parse"), "us"),
        Metric::new("serve.healthz_rtt_us", healthz * 1e6, "us"),
        Metric::new("serve.wait_us", (link - healthz) * 1e6 - link_batch1_us, "us"),
        Metric::new(
            "serve.batch_size_mean",
            scrape.get("serve_batched_requests_total")?
                / scrape.get("serve_batches_total")?.max(1.0),
            "count",
        ),
        Metric::new("serve.cache_hit_ratio", scrape.get("serve_cache_hit_rate")?, "ratio"),
        Metric::new(
            "serve.server_latency_mean_us",
            scrape.get("serve_latency_us_sum")? / scrape.get("serve_latency_us_count")?.max(1.0),
            "us",
        ),
        Metric::new("serve.shed_total", scrape.get("serve_deadline_shed_total")?, "count"),
        Metric::new("serve.rejected_total", scrape.get("serve_rejected_total")?, "count"),
        Metric::new("loadgen.late_p99_us", stats::quantile(&late, 0.99) * 1e6, "us"),
        Metric::new("loadgen.blocked_slots", blocked as f64, "count"),
    ])
}

/// Every link, store and serve layer metric for `workload`.
pub fn link_layers(run: &Run, workload: Workload, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let fixture = LinkFixture::build(run.seed, run.link_scale());
    let generation = fixture.registry.current();
    let sample = &fixture.pool[..run.layer_mentions().min(fixture.pool.len())];

    let mut metrics = link_stages(tr, &generation, sample, workload);
    metrics.push(Metric::new(
        "store.ivf_recall_at_64",
        ivf_recall(&generation, &sample[..sample.len().min(256)]),
        "ratio",
    ));

    // `link` alone, for the lone-request wait below.
    let linker = linker_for(&generation, true);
    for m in &sample[..sample.len().min(256)] {
        tr.span("core.link_single", 0, || linker.link(m)).map_err(|e| e.to_string())?;
    }
    let link_batch1_us = tr.total_s("core.link_single") / tr.count("core.link_single") as f64 * 1e6;
    drop(linker);

    metrics.extend(store_stages(tr, &fixture.store_dir(), &generation, &fixture.times));
    metrics.extend(serve_stages(tr, run, workload, fixture, link_batch1_us)?);
    Ok(metrics)
}
