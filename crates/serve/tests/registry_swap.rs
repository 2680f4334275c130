//! Hot-swap integration tests over real sockets: `POST /admin/reload`
//! must atomically flip the serving generation while sustained client
//! traffic sees zero dropped or malformed responses, and a corrupt
//! candidate checkpoint must be rejected (409) with the old generation
//! still serving.

use mb_common::storage::DiskStorage;
use mb_common::Rng;
use mb_core::linker::LinkerConfig;
use mb_core::pipeline::{BI_KEY, CROSS_KEY};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::build_vocab;
use mb_encoders::retrieval::CandidateSource;
use mb_serve::{ModelLoader, ModelRegistry, ServeModel, Server, ServerConfig};
use mb_tensor::checkpoint::Checkpoint;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

fn bi_cfg() -> BiEncoderConfig {
    BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() }
}

fn cross_cfg() -> CrossEncoderConfig {
    CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() }
}

/// Scratch dir removed on drop (panics leave it for inspection under
/// the OS temp dir, keyed by test tag + pid).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("mb-swap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Scratch(dir)
}

/// [`fixture_in`] a fresh tiny world (seed 91).
fn fixture() -> (ServeModel, Vec<LinkedMention>, ModelLoader) {
    fixture_in(&World::generate(WorldConfig::tiny(91)))
}

/// The startup model (encoder seed 1), test mentions, and a loader
/// that rebuilds candidate models from checkpoints against the same
/// world.
fn fixture_in(world: &World) -> (ServeModel, Vec<LinkedMention>, ModelLoader) {
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(4);
    let mentions = mb_datagen::mentions::generate_mentions(world, &domain, 24, &mut rng).mentions;
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

/// Write a valid v2 candidate checkpoint (encoder seed `seed`) at
/// `path`.
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

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let (status, _, body) = exchange(addr, raw);
    (status, body)
}

/// One request on a fresh connection: the status, the header lines
/// (names lowercased) and the body.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split(' ').nth(1).expect("code").parse().expect("numeric");
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
        headers.push(line);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf-8"))
}

fn link_request(m: &LinkedMention) -> Vec<u8> {
    let body = format!(
        "{{\"surface\":{},\"left\":{},\"right\":{},\"k\":3}}",
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

const RELOAD: &[u8] = b"POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";

/// The generation stamp a /link response carries.
fn response_generation(body: &str) -> u64 {
    let doc = mb_serve::json::parse(body.as_bytes()).expect("valid response JSON");
    doc.get("generation").and_then(|v| v.as_f64()).expect("generation field") as u64
}

#[test]
fn hot_swap_under_load_drops_nothing_and_flips_the_generation() {
    let dir = scratch("load");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let (model, mentions, loader) = fixture();
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let server = Server::start_with_registry(
        registry,
        ServerConfig { workers: 2, max_batch: 4, ..ServerConfig::default() },
    )
    .expect("start");
    let addr = server.addr();

    let (status, body) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":1"), "{body}");
    let (status, body) = roundtrip(addr, &link_request(&mentions[0]));
    assert_eq!(status, 200);
    assert_eq!(response_generation(&body), 1);

    // Sustained traffic racing the swap: every response must be a
    // complete 200 carrying a valid generation stamp (1 or 2 — never
    // torn, never an error).
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|t: usize| {
                let mentions = &mentions;
                scope.spawn(move || {
                    let mut gens = Vec::new();
                    for i in 0..40 {
                        let m = &mentions[(t * 40 + i) % mentions.len()];
                        let (status, body) = roundtrip(addr, &link_request(m));
                        assert_eq!(status, 200, "dropped response during swap: {body}");
                        gens.push(response_generation(&body));
                    }
                    gens
                })
            })
            .collect();
        // Fire the reload mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (status, body) = roundtrip(addr, RELOAD);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"swapped\""), "{body}");
        assert!(body.contains("\"generation\":2"), "{body}");
        for c in clients {
            for g in c.join().expect("client thread") {
                assert!(g == 1 || g == 2, "impossible generation {g}");
            }
        }
    });

    // After the swap every new response rides generation 2.
    assert_eq!(server.generation(), 2);
    let (status, body) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":2"), "{body}");
    let (status, body) = roundtrip(addr, &link_request(&mentions[1]));
    assert_eq!(status, 200);
    assert_eq!(response_generation(&body), 2);

    let (_, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert!(metrics.contains("serve_model_generation 2"), "{metrics}");
    assert!(metrics.contains("serve_model_swaps_total 1"), "{metrics}");
    server.shutdown();
}

/// The result LRU is scoped to the generation that filled it, the
/// `/metrics` cache counters are not: across a reload they only grow,
/// and a mention repeated after the swap is a *miss* in the new
/// generation's LRU — never answered from the old generation.
#[test]
fn cache_counters_never_decrease_across_a_reload() {
    let dir = scratch("cachecount");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let (model, mentions, loader) = fixture();
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let server = Server::start_with_registry(registry, ServerConfig::default()).expect("start");
    let addr = server.addr();
    let assert_counters = |hits: u64, misses: u64, why: &str| {
        let (_, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
        assert!(
            metrics.contains(&format!("serve_cache_hits_total {hits}\n"))
                && metrics.contains(&format!("serve_cache_misses_total {misses}\n")),
            "{why}: want {hits} hits / {misses} misses in\n{metrics}"
        );
    };

    for _ in 0..4 {
        let (status, body) = roundtrip(addr, &link_request(&mentions[0]));
        assert_eq!(status, 200, "{body}");
        assert_eq!(response_generation(&body), 1);
    }
    assert_counters(3, 1, "one miss fills the LRU, three repeats hit it");

    let (status, body) = roundtrip(addr, RELOAD);
    assert_eq!(status, 200, "{body}");
    let (status, body) = roundtrip(addr, &link_request(&mentions[0]));
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_generation(&body), 2);
    assert_counters(3, 2, "generation 2 starts with an empty LRU; totals keep growing");
    server.shutdown();
}

#[test]
fn corrupt_candidate_answers_409_and_the_old_generation_keeps_serving() {
    let dir = scratch("corrupt");
    let candidate = dir.0.join("model.mbc");
    // A torn/garbage candidate: the v2 loader's CRC validation must
    // reject it before anything reaches the registry.
    std::fs::write(&candidate, b"MBPARAMS-from-a-crashed-writer\x00\x01\x02garbage")
        .expect("write garbage");
    let (model, mentions, loader) = fixture();
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let server = Server::start_with_registry(registry, ServerConfig::default()).expect("start");
    let addr = server.addr();

    let (status, body) = roundtrip(addr, RELOAD);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("error"), "{body}");
    assert!(body.contains("\"generation\":1"), "{body}");

    // Serving is untouched: generation 1 still answers.
    let (status, body) = roundtrip(addr, &link_request(&mentions[0]));
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_generation(&body), 1);
    let (_, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert!(metrics.contains("serve_reload_rejected_total 1"), "{metrics}");
    assert!(metrics.contains("serve_model_generation 1"), "{metrics}");
    assert!(metrics.contains("serve_model_swaps_total 0"), "{metrics}");
    server.shutdown();
}

#[test]
fn reload_with_an_explicit_body_path_swaps_from_that_file() {
    let dir = scratch("bodypath");
    let elsewhere = dir.0.join("blue-green.mbc");
    write_candidate(&elsewhere, 21);
    let (model, _, loader) = fixture();
    let registry = ModelRegistry::with_loader(model, dir.0.join("missing-default.mbc"), loader)
        .expect("valid startup model");
    let server = Server::start_with_registry(registry, ServerConfig::default()).expect("start");
    let addr = server.addr();

    let body = format!("{{\"path\":{}}}", mb_serve::json::escape(&elsewhere.to_string_lossy()));
    let mut req = format!(
        "POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    let (status, reply) = roundtrip(addr, &req);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"generation\":2"), "{reply}");
    assert_eq!(server.generation(), 2);
    server.shutdown();
}

/// Write a sharded store of `n` dim-16 entities under `dir` (ids
/// 0..n, matching the head of the fixture KB's id space).
fn write_store(dir: &Path, n: usize) {
    use mb_store::{StoreBuilder, StoreConfig, StoreRecord};
    let cfg = StoreConfig { shard_capacity: 16, dim: 16, quant: mb_tensor::quant::QuantMode::Int8 };
    let mut builder = StoreBuilder::create(dir, cfg).expect("store builder");
    let mut rng = Rng::seed_from_u64(77);
    for i in 0..n {
        let mut vector: Vec<f64> = (0..16).map(|_| rng.gaussian()).collect();
        let norm = vector.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        vector.iter_mut().for_each(|x| *x /= norm);
        builder
            .push(StoreRecord {
                title: format!("stored entity {i}"),
                description: format!("payload for stored entity {i}"),
                vector,
            })
            .expect("push record");
    }
    builder.finish().expect("finish store");
}

#[test]
fn reload_binds_a_sharded_store_next_to_the_checkpoint() {
    let dir = scratch("storebind");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let (model, mentions, loader) = fixture();
    // A `store/` directory beside the checkpoint flips the next
    // generation to sharded-store retrieval (DESIGN.md §14).
    let n = model.kb.len().min(48);
    write_store(&dir.0.join("store"), n);

    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    assert!(registry.current().store.is_none(), "generation 1 is dictionary-backed");
    let id = registry.reload(None).expect("store-backed reload");
    assert_eq!(id, 2);
    let generation = registry.current();
    let store = generation.store.as_ref().expect("generation 2 carries the store");
    assert_eq!(store.len(), n);
    let ann = generation.ann.as_ref().expect("generation 2 carries the IVF index");
    assert!(ann.nprobe() > 0);
    assert!(generation.index.is_empty(), "dense index stays empty for store-backed serving");
    assert!(generation.qindex.is_some(), "quantized tables come straight from the shards");
    // The entity feature table covers exactly the store's ids, so every
    // candidate the IVF index can return is already featurised.
    let features = generation.model.frozen_cross().features();
    assert_eq!(features.len(), n);
    assert!((0..n as u32).all(|id| features.covers(mb_kb::EntityId(id))));
    assert!(!features.covers(mb_kb::EntityId(n as u32)));

    // The swapped generation actually serves: run it behind a real
    // socket and link through the ANN path.
    let server = Server::start_with_registry(registry, ServerConfig::default()).expect("start");
    let addr = server.addr();
    assert_eq!(server.generation(), 2);
    let (status, body) = roundtrip(addr, &link_request(&mentions[0]));
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_generation(&body), 2);
    server.shutdown();
}

/// A store manifest declaring `u64::MAX` sections used to panic the
/// reload (`Vec::with_capacity`), and any unwind out of a reload used
/// to strand the `reloading` flag: every later reload then answered
/// "already in progress" until restart.
#[test]
fn a_rejected_or_unwound_reload_leaves_the_old_generation_and_the_next_reload_working() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dir = scratch("hugecount");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let (model, mentions, load) = fixture();
    write_store(&dir.0.join("store"), model.kb.len().min(48));
    static LOADER_BUG: AtomicBool = AtomicBool::new(false);
    let loader: ModelLoader = Box::new(move |path: &Path| {
        assert!(!LOADER_BUG.load(Ordering::SeqCst), "a bug in the loader");
        load(path)
    });
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    assert_eq!(registry.reload(None).expect("store-backed reload"), 2);
    let serving = registry.current();
    // Per mention: every candidate id, then both stages' score bits.
    let answers = |generation: &mb_serve::Generation| -> Vec<Vec<u64>> {
        let results = generation.linker().expect("linker").link_batch(&mentions).expect("link");
        results
            .iter()
            .map(|r| {
                let ids = r.retrieved.iter().map(|&(id, _)| u64::from(id.0));
                let scores = r.retrieved.iter().map(|(_, s)| s).chain(&r.rerank_scores);
                ids.chain(scores.map(|s| s.to_bits())).collect()
            })
            .collect()
    };
    let before = answers(&serving);

    let manifest = dir.0.join("store").join(mb_store::MANIFEST);
    let good = std::fs::read(&manifest).expect("manifest bytes");
    let rest = good.strip_prefix(b"mb-store v1 1\n").expect("one-section manifest");
    std::fs::write(&manifest, [b"mb-store v1 18446744073709551615\n", rest].concat())
        .expect("write corrupted");
    let err = registry.reload(None).expect_err("corrupt manifest");
    assert!(matches!(err, mb_common::Error::Checkpoint(_)), "{err:?}");
    assert_eq!((registry.rejected(), registry.generation_id()), (1, 2));
    assert!(std::sync::Arc::ptr_eq(&serving, &registry.current()));
    assert_eq!(answers(&registry.current()), before);

    LOADER_BUG.store(true, Ordering::SeqCst);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.reload(None)));
    assert!(unwound.is_err(), "the loader panicked");
    LOADER_BUG.store(false, Ordering::SeqCst);
    assert_eq!(registry.generation_id(), 2);

    std::fs::write(&manifest, &good).expect("restore");
    assert_eq!(registry.reload(None).expect("the next good reload"), 3);
    assert_eq!(answers(&registry.current()), before, "same checkpoint, same store");
}

/// Reloads are serialized: one that arrives while another is inside its
/// loader sheds with 503 + `Retry-After` instead of queueing behind it,
/// and the first one still publishes.
#[test]
fn a_reload_arriving_during_another_answers_503_and_the_first_still_publishes() {
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;
    let dir = scratch("busy");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let (model, _, load) = fixture();
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
    let loader: ModelLoader = Box::new(move |path: &Path| {
        entered_tx.lock().expect("sender").send(()).expect("the test is waiting");
        let _ = release_rx.lock().expect("receiver").recv_timeout(Duration::from_secs(60));
        load(path)
    });
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let server = Server::start_with_registry(registry, ServerConfig::default()).expect("start");
    let addr = server.addr();

    let first = std::thread::spawn(move || roundtrip(addr, RELOAD));
    entered.recv_timeout(Duration::from_secs(60)).expect("the first reload reaches its loader");
    let (status, headers, body) = exchange(addr, RELOAD);
    assert_eq!(status, 503, "{body}");
    assert!(headers.iter().any(|h| h == "retry-after: 1"), "{headers:?}");
    assert!(body.contains("already in progress"), "{body}");
    assert_eq!(server.generation(), 1, "nothing published while the first reload loads");

    release.send(()).expect("the loader is waiting");
    let (status, body) = first.join().expect("first reload");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    assert_eq!(server.generation(), 2);
    let (_, metrics) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
    assert!(metrics.contains("serve_reload_rejected_total 0"), "{metrics}");
    assert!(metrics.contains("serve_model_swaps_total 1"), "{metrics}");
    server.shutdown();
}

/// The KB is resident once: the start-up model, the loader's copy and
/// every reloaded generation read the world's own entity table.
#[test]
fn every_generation_shares_the_worlds_kb() {
    let dir = scratch("kbshare");
    let candidate = dir.0.join("model.mbc");
    write_candidate(&candidate, 7);
    let world = World::generate(WorldConfig::tiny(91));
    let (model, _, loader) = fixture_in(&world);
    let registry =
        ModelRegistry::with_loader(model, candidate, loader).expect("valid startup model");
    let mut generations = vec![registry.current()];
    for id in 2..=4 {
        assert_eq!(registry.reload(None).expect("reload"), id);
        generations.push(registry.current());
    }
    for generation in &generations {
        assert!(
            std::ptr::eq(generation.model.kb.entities(), world.kb().entities()),
            "generation {} holds its own copy of the entity table",
            generation.id
        );
    }
}

#[test]
fn reload_without_a_configured_source_is_a_conflict() {
    let (model, _, _) = fixture();
    let server = Server::start(model, ServerConfig::default()).expect("start");
    let (status, body) = roundtrip(server.addr(), RELOAD);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("no reload source configured"), "{body}");
    server.shutdown();
}
