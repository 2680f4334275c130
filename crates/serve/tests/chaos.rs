//! Chaos tests (`#[ignore]`, run in release by the CI `chaos-serve`
//! stage): the server behind a seed-replayable fault-injecting proxy
//! must never wedge, never emit a torn-but-complete `200`, and recover
//! to healthy — even while a hot model swap races the faulted traffic.
//! A second test drives the server past its deadline budget and
//! asserts shedding is fast (bounded 503 latency, `Retry-After` on
//! every shed, no 60-second pileups).

use mb_common::storage::DiskStorage;
use mb_common::Rng;
use mb_core::linker::LinkerConfig;
use mb_core::pipeline::{BI_KEY, CROSS_KEY};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::build_vocab;
use mb_fault::net::{NetFault, NetFaultPlan, NetProxy};
use mb_serve::{ModelLoader, ModelRegistry, ServeConfig, ServeModel, Server, ServerConfig};
use mb_tensor::checkpoint::Checkpoint;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

fn bi_cfg() -> BiEncoderConfig {
    BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() }
}

fn cross_cfg() -> CrossEncoderConfig {
    CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() }
}

/// Startup model, mentions to link, and a checkpoint loader over the
/// same world (mirrors the registry_swap fixture).
fn fixture() -> (ServeModel, Vec<LinkedMention>, ModelLoader) {
    let world = World::generate(WorldConfig::tiny(91));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(4);
    let mentions = mb_datagen::mentions::generate_mentions(&world, &domain, 24, &mut rng).mentions;
    let dictionary = world.kb().domain_entities(domain.id).to_vec();
    let model = ServeModel::new(
        vocab.clone(),
        world.kb().clone(),
        dictionary.clone(),
        BiEncoder::new(&vocab, bi_cfg(), &mut Rng::seed_from_u64(1)),
        CrossEncoder::new(&vocab, cross_cfg(), &mut Rng::seed_from_u64(2)),
        LinkerConfig { k: 8, ..LinkerConfig::default() },
        domain.name.clone(),
    );
    let kb = world.kb().clone();
    let domain_name = domain.name.clone();
    let loader: ModelLoader = Box::new(move |path: &Path| {
        let ck = Checkpoint::load(&mut DiskStorage::new(), path)?;
        ServeModel::from_checkpoint(
            &ck,
            vocab.clone(),
            kb.clone(),
            dictionary.clone(),
            domain_name.clone(),
            bi_cfg(),
            cross_cfg(),
            LinkerConfig { k: 8, ..LinkerConfig::default() },
        )
    });
    (model, mentions, loader)
}

fn write_candidate(path: &Path, seed: u64) {
    let world = World::generate(WorldConfig::tiny(91));
    let vocab = build_vocab(world.kb(), [], 1);
    let bi = BiEncoder::new(&vocab, bi_cfg(), &mut Rng::seed_from_u64(seed));
    let cross = CrossEncoder::new(&vocab, cross_cfg(), &mut Rng::seed_from_u64(seed + 1));
    let mut ck = Checkpoint::new();
    ck.params.insert(BI_KEY.to_string(), bi.params().clone());
    ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
    ck.save(&mut DiskStorage::new(), path).expect("write candidate");
}

/// Truncate context to keep slow-loris wall clock bounded (the loris
/// trickles a few bytes per tick; body size is the clock).
fn clip(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

fn link_request(m: &LinkedMention, deadline_ms: Option<u64>) -> Vec<u8> {
    link_request_with_left(m, &clip(&m.left, 12), deadline_ms)
}

/// [`link_request`] with an explicit (unclipped) left context.
fn link_request_with_left(m: &LinkedMention, left: &str, deadline_ms: Option<u64>) -> Vec<u8> {
    let deadline = deadline_ms.map(|d| format!(",\"deadline_ms\":{d}")).unwrap_or_default();
    let body = format!(
        "{{\"surface\":{},\"left\":{},\"right\":{},\"k\":3{deadline}}}",
        mb_serve::json::escape(&m.surface),
        mb_serve::json::escape(left),
        mb_serve::json::escape(&clip(&m.right, 12)),
    );
    let mut req = format!(
        "POST /link HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

/// One full exchange; `Err` on any connect/read/parse failure or torn
/// response, `Ok((status, retry_after_seen, body))` on a complete reply.
fn try_roundtrip(
    addr: SocketAddr,
    raw: &[u8],
    timeout: Duration,
) -> Result<(u16, bool, String), String> {
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("timeout: {e}"))?;
    let mut stream = stream;
    stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("torn status line: {status_line:?}"))?;
    let mut content_length = None;
    let mut retry_after = false;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        if n == 0 {
            return Err("EOF inside headers".to_string());
        }
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse::<usize>().ok();
        }
        if line.starts_with("retry-after:") {
            retry_after = true;
        }
    }
    let len = content_length.ok_or("no content-length")?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| format!("torn body: {e}"))?;
    let body = String::from_utf8(body).map_err(|e| format!("non-utf8 body: {e}"))?;
    Ok((status, retry_after, body))
}

fn expect_ok(addr: SocketAddr, raw: &[u8], what: &str) -> String {
    let (status, _, body) =
        try_roundtrip(addr, raw, Duration::from_secs(15)).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(status, 200, "{what}: {body}");
    body
}

/// Seed-replayable chaos: sixteen sequential connections through the
/// faulted proxy (two full cycles of the seeded plan), a hot swap fired
/// mid-run, then direct probes proving the server is healthy, on the
/// new generation, and was never wedged. Faults are assigned by accept
/// index, and connections are driven strictly one at a time, so the
/// fault seen by connection `i` is exactly `plan.fault_for(i)` — a
/// failure replays from the seed alone.
#[test]
#[ignore = "chaos suite: run in release via scripts/ci.sh chaos-serve"]
fn faulted_traffic_never_wedges_the_server_even_across_a_hot_swap() {
    let scratch = std::env::temp_dir().join(format!("mb-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch");
    let candidate = scratch.join("model.mbc");
    write_candidate(&candidate, 7);

    let (model, mentions, loader) = fixture();
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let cfg = ServerConfig {
        workers: 2,
        max_batch: 4,
        serve: ServeConfig {
            // Tight enough that a wedged read would fail the test fast,
            // loose enough for the slowest seeded loris (~6 s).
            read_timeout_ms: 10_000,
            ..ServeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start_with_registry(registry, cfg).expect("start");
    let plan = NetFaultPlan::seeded(7);
    let proxy = NetProxy::start(server.addr(), plan.clone()).expect("proxy");

    let started = Instant::now();
    let mut clean_200 = 0u32;
    for i in 0..16u64 {
        let fault = plan.fault_for(i);
        let raw = link_request(&mentions[i as usize % mentions.len()], None);
        let outcome = try_roundtrip(proxy.addr(), &raw, Duration::from_secs(15));
        match fault {
            NetFault::None | NetFault::SlowLoris { .. } | NetFault::StalledClient { .. } => {
                let (status, _, body) =
                    outcome.unwrap_or_else(|e| panic!("conn {i} ({fault:?}) should survive: {e}"));
                assert_eq!(status, 200, "conn {i} ({fault:?}): {body}");
                assert!(body.contains("\"generation\":"), "conn {i}: torn 200? {body}");
                clean_200 += 1;
            }
            NetFault::TornReply { .. } | NetFault::Abort { .. } => {
                // The one outcome chaos must never produce is a torn
                // response that still parses as a complete 200.
                assert!(
                    outcome.is_err(),
                    "conn {i} ({fault:?}) returned a complete response through a torn pipe: {outcome:?}"
                );
            }
        }
        if i == 7 {
            // Hot swap racing the remaining faulted traffic (fired
            // directly at the server so proxy accept indices stay
            // aligned with the plan).
            let body = expect_ok(
                server.addr(),
                b"POST /admin/reload HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
                "mid-chaos reload",
            );
            assert!(body.contains("\"status\":\"swapped\""), "{body}");
        }
    }
    assert_eq!(clean_200, 12, "every clean/slow/stalled connection completes");
    assert_eq!(proxy.accepted(), 16);

    // Recovery: the server answers direct (unfaulted) traffic promptly,
    // on the swapped generation, with sane counters.
    let body = expect_ok(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        "post-chaos healthz",
    );
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    let body = expect_ok(server.addr(), &link_request(&mentions[0], None), "post-chaos link");
    assert!(body.contains("\"generation\":2"), "{body}");
    let metrics = expect_ok(
        server.addr(),
        b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        "post-chaos metrics",
    );
    assert!(metrics.contains("serve_model_swaps_total 1"), "{metrics}");
    assert!(metrics.contains("serve_model_generation 2"), "{metrics}");

    assert!(
        started.elapsed() < Duration::from_secs(120),
        "chaos run took {:?} — something wedged",
        started.elapsed()
    );
    proxy.stop();
    server.shutdown();
}

/// Deadline pressure: requests whose budgets expire while batched must
/// shed as *fast* 503s carrying `Retry-After` — never 60-second
/// pileups — while generous-deadline traffic in the same batch window
/// is served, and the server stays healthy afterwards.
#[test]
#[ignore = "chaos suite: run in release via scripts/ci.sh chaos-serve"]
fn overloaded_deadlines_shed_fast_503s_with_retry_after() {
    let (model, mentions, _) = fixture();
    let cfg = ServerConfig {
        // Serial service: one worker draining one job at a time, so
        // concurrent arrivals wait in the queue for several service
        // times — far past a 1 ms budget, never near the 10 s default.
        workers: 1,
        max_batch: 1,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(model, cfg).expect("start");
    let addr = server.addr();
    // The overload must not depend on how fast the linker is: every
    // request carries a ~47 KB left context (under the 64 KB body cap),
    // which the worker has to tokenise in full to find its last twelve
    // tokens — a fixed service cost well past the 1 ms budgets once a
    // few requests are queued.
    let long_left = |m: &LinkedMention| format!("{} ", clip(&m.left, 12)).repeat(3600);

    type Outcome = (u64, Result<(u16, bool, String), String>, Duration);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..52u64)
            .map(|i| {
                let m = &mentions[i as usize % mentions.len()];
                // 48 requests with a hopeless 1 ms budget, 4 with
                // the generous default.
                let deadline = if i < 48 { Some(1) } else { None };
                let raw = link_request_with_left(m, &long_left(m), deadline);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let r = try_roundtrip(addr, &raw, Duration::from_secs(15));
                    (i, r, t0.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });

    let mut shed = 0u32;
    let mut served = 0u32;
    for (i, outcome, elapsed) in outcomes {
        let (status, retry_after, body) =
            outcome.unwrap_or_else(|e| panic!("client {i} failed outright: {e}"));
        match status {
            200 => served += 1,
            503 => {
                shed += 1;
                assert!(retry_after, "503 without Retry-After for client {i}: {body}");
                assert!(
                    elapsed < Duration::from_secs(3),
                    "client {i} shed after {elapsed:?} — shedding must be fast"
                );
            }
            other => panic!("client {i}: unexpected status {other}: {body}"),
        }
    }
    assert!(shed >= 16, "expected most 1 ms-budget requests shed, got {shed}");
    assert!(served >= 4, "generous-deadline requests must be served, got {served}");

    // Recovery probe: normal traffic flows again and the shed counters
    // moved.
    let body = expect_ok(addr, &link_request(&mentions[0], None), "post-overload link");
    assert!(body.contains("\"generation\":1"), "{body}");
    let metrics = expect_ok(
        addr,
        b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        "post-overload metrics",
    );
    let shed_total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve_deadline_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("serve_deadline_shed_total in metrics");
    assert!(shed_total >= u64::from(shed), "metrics undercount sheds: {shed_total} < {shed}");
    server.shutdown();
}
