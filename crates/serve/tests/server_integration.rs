//! End-to-end tests of the serving subsystem over real sockets: a tiny
//! synthetic-world model served on an ephemeral port, driven with a
//! minimal in-test HTTP client.

use mb_common::Rng;
use mb_core::linker::{LinkerConfig, TwoStageLinker};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::build_vocab;
use mb_serve::http::HttpLimits;
use mb_serve::{ServeModel, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

struct Fixture {
    world: World,
    model: ServeModel,
    mentions: Vec<LinkedMention>,
}

/// An untrained (randomly initialized) model: inference correctness
/// and bit-identity do not depend on training, and skipping it keeps
/// the test fast.
fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(91));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(4);
    let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 40, &mut rng);
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
    let model = ServeModel::new(
        vocab,
        world.kb().clone(),
        world.kb().domain_entities(domain.id).to_vec(),
        bi,
        cross,
        LinkerConfig { k: 8, ..LinkerConfig::default() },
        domain.name.clone(),
    );
    Fixture { world, model, mentions: ms.mentions }
}

/// Send one request and return (status, body). Opens a fresh
/// connection per call.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    read_response(&mut BufReader::new(stream))
}

fn read_response<R: BufRead>(r: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    r.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split(' ').nth(1).expect("status code").parse().expect("numeric");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        r.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn link_request(m: &LinkedMention, k: usize) -> Vec<u8> {
    let body = format!(
        "{{\"surface\":{},\"left\":{},\"right\":{},\"k\":{k}}}",
        mb_serve::json::escape(&m.surface),
        mb_serve::json::escape(&m.left),
        mb_serve::json::escape(&m.right),
    );
    let mut req = format!(
        "POST /link HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

fn fetch_metrics(addr: SocketAddr) -> String {
    let (status, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    metrics
}

/// The value of the un-labelled `/metrics` line `name`.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in metrics:\n{metrics}"))
}

/// The mention as the server reconstructs it (no gold label).
fn served_mention(m: &LinkedMention) -> LinkedMention {
    LinkedMention { entity: mb_kb::EntityId(0), ..m.clone() }
}

#[test]
fn serves_health_metrics_and_errors() {
    let f = fixture();
    let server = Server::start(f.model, ServerConfig::default()).expect("start");
    let addr = server.addr();

    let (status, body) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("TargetX"), "{body}");

    let (status, body) = roundtrip(addr, b"GET /nope HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("error"));

    // Malformed JSON body and malformed HTTP framing are both 400s.
    let (status, _) =
        roundtrip(addr, b"POST /link HTTP/1.1\r\nhost: t\r\ncontent-length: 3\r\n\r\n{{{");
    assert_eq!(status, 400);
    let (status, _) = roundtrip(addr, b"POST /link HTTP/1.1\r\ncontent-length: zap\r\n\r\n");
    assert_eq!(status, 400);

    let (status, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(!metrics.is_empty());
    assert!(metrics.contains("serve_requests_total"), "{metrics}");
    assert!(metrics.contains("serve_queue_depth"), "{metrics}");

    server.shutdown();
}

#[test]
fn concurrent_batched_responses_match_sequential_link() {
    let f = fixture();
    // Build the identical linker locally: DenseIndex::build is
    // deterministic, so expected responses can be computed offline.
    let linker = TwoStageLinker::new(
        &f.model.bi,
        &f.model.cross,
        &f.model.vocab,
        &f.model.kb,
        &f.model.dictionary,
        f.model.linker,
    );
    let mentions: Vec<LinkedMention> = f.mentions.iter().take(12).map(served_mention).collect();
    let expected: Vec<_> = mentions.iter().map(|m| linker.link(m).expect("link")).collect();

    let server = Server::start(f.model, ServerConfig { max_batch: 8, ..ServerConfig::default() })
        .expect("start");
    let addr = server.addr();

    // Fire all requests concurrently: whatever queues up while the
    // worker is busy is fused, and however the batches fall the answers
    // must not change.
    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mentions
            .iter()
            .map(|m| scope.spawn(move || roundtrip(addr, &link_request(m, 3))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for ((status, body), want) in responses.iter().zip(&expected) {
        assert_eq!(*status, 200, "{body}");
        let doc = mb_serve::json::parse(body.as_bytes()).expect("valid response JSON");
        let predicted = doc.get("predicted").expect("predicted field");
        let want_id = want.predicted.expect("non-empty dictionary").0;
        assert_eq!(
            predicted.get("id").and_then(|v| v.as_f64()),
            Some(want_id as f64),
            "prediction mismatch: {body}"
        );
        // Top candidate's rerank score must be BIT-identical to the
        // sequential link() score (f64 Display round-trips exactly).
        let top = want.rerank_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let candidates = match doc.get("candidates") {
            Some(mb_serve::json::Json::Arr(items)) => items.clone(),
            other => panic!("bad candidates: {other:?}"),
        };
        assert!(!candidates.is_empty() && candidates.len() <= 3);
        let served_top = candidates[0].get("score").and_then(|v| v.as_f64()).expect("score");
        assert_eq!(served_top.to_bits(), top.to_bits(), "rerank score drifted: {body}");
    }

    // Every request went through exactly one batch.
    let metrics = fetch_metrics(addr);
    let batches = metric(&metrics, "serve_batches_total");
    let batched = metric(&metrics, "serve_batched_requests_total");
    assert_eq!(batched, mentions.len() as u64);
    assert!(batches <= batched, "{batches} batches for {batched} requests");

    server.shutdown();
    let _ = f.world; // keep the world alive alongside kb clones
}

/// Work conservation, fusing side: jobs that queue up while the single
/// worker is inside a batch come out together as its next batch. The
/// blocker carries a 2 MB left context (the worker tokenises all of it:
/// tens of milliseconds even in release), and the test *observes*
/// through `/metrics` that the worker took the blocker alone and that
/// every follower was queued before it came back — from that state the
/// outcome is determined.
#[test]
fn requests_queued_behind_a_busy_worker_are_fused_into_one_batch() {
    const FOLLOWERS: usize = 6;
    let f = fixture();
    let blocker = LinkedMention {
        left: "the quick brown fox jumps over the lazy dog ".repeat(45_000),
        ..served_mention(&f.mentions[0])
    };
    let followers: Vec<LinkedMention> =
        f.mentions[1..=FOLLOWERS].iter().map(served_mention).collect();
    let limits = HttpLimits { max_body: 4 << 20, ..HttpLimits::default() };
    let server =
        Server::start(f.model, ServerConfig { limits, ..ServerConfig::default() }).expect("start");
    let addr = server.addr();

    // The hold is real compute, so a starved box could let the worker
    // finish early; such an attempt proves nothing and is repeated.
    for attempt in 0..20 {
        let before = fetch_metrics(addr);
        let (batches, batched) = (
            metric(&before, "serve_batches_total"),
            metric(&before, "serve_batched_requests_total"),
        );
        let held = std::thread::scope(|scope| {
            let blocked = scope.spawn(|| roundtrip(addr, &link_request(&blocker, 1)));
            // `serve_batches_total` moves when the worker has taken the
            // blocker (alone: nothing else was sent yet).
            while metric(&fetch_metrics(addr), "serve_batches_total") == batches {
                std::thread::yield_now();
            }
            let clients: Vec<_> = followers
                .iter()
                .map(|m| scope.spawn(move || roundtrip(addr, &link_request(m, 1))))
                .collect();
            // Held = one snapshot shows every follower queued and the
            // worker not yet back for its next batch.
            let held = loop {
                let now = fetch_metrics(addr);
                if metric(&now, "serve_batches_total") != batches + 1 {
                    break false;
                }
                if metric(&now, "serve_queue_depth") == FOLLOWERS as u64 {
                    break true;
                }
                std::thread::yield_now();
            };
            assert_eq!(blocked.join().expect("blocker").0, 200);
            for c in clients {
                assert_eq!(c.join().expect("follower").0, 200);
            }
            held
        });
        if !held {
            eprintln!("attempt {attempt}: the worker came back before all followers queued");
            continue;
        }
        let after = fetch_metrics(addr);
        assert_eq!(metric(&after, "serve_batches_total"), batches + 2, "blocker, then ONE batch");
        assert_eq!(metric(&after, "serve_batched_requests_total"), batched + 1 + FOLLOWERS as u64);
        server.shutdown();
        return;
    }
    panic!("never observed the worker held while {FOLLOWERS} requests queued");
}

/// Work conservation, idle side: a lone caller is never held back to
/// wait for company. Fifty sequential calls on the default config; the
/// server-side median must sit below the 1 ms histogram bound (any
/// linger of a millisecond or more would push it into the next bucket).
#[test]
fn a_lone_caller_is_answered_without_waiting_for_a_batch() {
    let f = fixture();
    let server = Server::start(f.model, ServerConfig::default()).expect("start");
    let addr = server.addr();
    for m in f.mentions.iter().cycle().take(50) {
        let (status, body) = roundtrip(addr, &link_request(&served_mention(m), 3));
        assert_eq!(status, 200, "{body}");
    }
    let metrics = fetch_metrics(addr);
    assert_eq!(metric(&metrics, "serve_batches_total"), 50, "one batch per lone request");
    let p50 = metric(&metrics, "serve_latency_p50_us");
    assert!(p50 < 1_500, "lone-caller p50 {p50} µs, metrics:\n{metrics}");
    server.shutdown();
}

#[test]
fn repeated_requests_hit_the_embedding_cache() {
    let f = fixture();
    let m = served_mention(&f.mentions[0]);
    let server = Server::start(f.model, ServerConfig::default()).expect("start");
    let addr = server.addr();
    let (_, first) = roundtrip(addr, &link_request(&m, 3));
    for _ in 0..3 {
        let (status, body) = roundtrip(addr, &link_request(&m, 3));
        assert_eq!(status, 200);
        assert_eq!(body, first, "cached answers must be identical");
    }
    let metrics = fetch_metrics(addr);
    let hits = metric(&metrics, "serve_cache_hits_total");
    assert!(hits >= 3, "expected cache hits, metrics:\n{metrics}");
    server.shutdown();
}

#[test]
fn admin_shutdown_drains_and_join_returns() {
    let f = fixture();
    let m = served_mention(&f.mentions[0]);
    let server = Server::start(f.model, ServerConfig::default()).expect("start");
    let addr = server.addr();
    let (status, _) = roundtrip(addr, &link_request(&m, 2));
    assert_eq!(status, 200);
    let (status, body) = roundtrip(addr, b"POST /admin/shutdown HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    // Graceful: all server threads exit; a hang here fails the test
    // harness timeout.
    server.join();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let f = fixture();
    let m = served_mention(&f.mentions[1]);
    let server = Server::start(f.model, ServerConfig::default()).expect("start");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut bodies = Vec::new();
    for _ in 0..3 {
        write_half.write_all(&link_request(&m, 2)).expect("send");
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        bodies.push(body);
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[1], bodies[2]);
    server.shutdown();
}
