//! The HTTP server: acceptor, connection handlers, and batch workers.
//!
//! Threading model (see DESIGN.md §9 and §13):
//!
//! - one **acceptor** thread turns accepted sockets into per-connection
//!   handler threads;
//! - **handler** threads parse requests; `/link` jobs pass the
//!   admission gate, then the bounded [`BatchQueue`] (full queue →
//!   `503`) and block on a reply channel; `/healthz`, `/metrics`,
//!   `/admin/reload`, and `/admin/shutdown` answer inline;
//! - a pool of **batch workers** drains the queue work-conservingly (a
//!   worker waits only on an empty queue, then takes what is queued, up
//!   to `max_batch`), answers repeated mentions from its own LRU of
//!   link results, and runs one fused
//!   [`mb_core::linker::TwoStageLinker::link_batch`] over the rest.
//!
//! Every batch is served by exactly one model [`Generation`] resolved
//! from the [`ModelRegistry`]: workers re-check the generation id after
//! draining and rebuild their linker before serving a batch that
//! arrived across a hot swap, and each reply carries the generation
//! that computed it so responses are never mixed across generations.
//! Generations change only through `POST /admin/reload`; one that
//! arrives while another reload is running answers `503` with
//! `Retry-After` (the registry's [`mb_common::Error::Busy`]).
//!
//! Overload degrades to fast rejections: the admission gate bounds
//! requests inside the server, per-request deadlines shed queue entries
//! that can no longer be met at the current drain rate, and every `503`
//! carries `Retry-After` ([`ServeConfig`]).
//!
//! Shutdown is a flag, not a signal: `POST /admin/shutdown` (or
//! [`Server::shutdown`]) closes the queue so workers drain in-flight
//! batches and exit, wakes the acceptor, and [`Server::join`] returns.

use crate::config::{AdmissionGate, ServeConfig};
use crate::http::{read_request, write_response, HttpError, HttpLimits, Request};
use crate::json::{self, Json};
use crate::metrics::{Gauges, Metrics};
use crate::model::ServeModel;
use crate::queue::{BatchQueue, PushError};
use crate::registry::{Generation, ModelRegistry};
use mb_common::LruCache;
use mb_core::linker::{LinkResult, TwoStageLinker};
use mb_datagen::LinkedMention;
use mb_encoders::input::{mention_bag, surface_bag};
use mb_kb::EntityId;
use mb_text::OverlapCategory;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Most requests fused into one forward pass.
    pub max_batch: usize,
    /// Bounded queue capacity; beyond it, `/link` answers 503.
    pub queue_capacity: usize,
    /// Link-result LRU capacity per worker (0 disables caching).
    pub cache_capacity: usize,
    /// Batch-worker threads.
    pub workers: usize,
    /// HTTP parser limits.
    pub limits: HttpLimits,
    /// Resilience knobs: timeouts, deadlines, admission control.
    pub serve: ServeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 16,
            queue_capacity: 256,
            cache_capacity: 4_096,
            workers: 1,
            limits: HttpLimits::default(),
            serve: ServeConfig::default(),
        }
    }
}

/// What a worker sends back for one queued job.
enum Reply {
    /// Served: the result plus the generation that computed it (the
    /// handler renders entity titles against *that* generation's KB).
    Done(LinkResult, Arc<Generation>),
    /// Shed at drain time: the deadline could not be met.
    Shed,
    /// Inference reported a typed error (unreachable for a
    /// publish-validated generation); the handler answers 500 instead
    /// of the worker panicking.
    Failed(String),
}

/// One queued `/link` request.
struct Job {
    mention: LinkedMention,
    reply: mpsc::Sender<Reply>,
    /// Absolute deadline derived from the request's budget; the drain
    /// predicate sheds jobs whose deadline is unreachable.
    deadline: Instant,
}

/// One routed response, plus the `Retry-After` seconds carried by
/// shedding 503s.
struct HttpReply {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after_s: Option<u64>,
}

impl HttpReply {
    fn json(status: u16, body: String) -> HttpReply {
        HttpReply { status, content_type: "application/json", body, retry_after_s: None }
    }

    /// A load-shedding 503 with `Retry-After`.
    fn shed(message: &str, retry_after_s: u64) -> HttpReply {
        HttpReply {
            status: 503,
            content_type: "application/json",
            body: format!("{{\"error\":{}}}", json::escape(message)),
            retry_after_s: Some(retry_after_s),
        }
    }
}

/// State shared by every thread of the server.
struct Shared {
    registry: ModelRegistry,
    cfg: ServerConfig,
    queue: BatchQueue<Job>,
    gate: AdmissionGate,
    metrics: Metrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Flip the shutdown flag, close the queue, and poke the acceptor
    /// loose from `accept()` with a throwaway connection.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    /// Point-in-time gauges for `/metrics`.
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.len(),
            inflight: self.gate.inflight(),
            generation: self.registry.generation_id(),
            swaps: self.registry.swaps(),
            reload_rejected: self.registry.rejected(),
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] or let `POST /admin/shutdown` end it.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Serve `model` as generation 1 with no reload source
    /// (`POST /admin/reload` answers 409).
    ///
    /// # Errors
    /// [`mb_common::Error::Io`] when the address cannot be bound;
    /// index-validation errors from
    /// [`mb_core::linker::TwoStageLinker::with_frozen`] when the model is
    /// inconsistent.
    pub fn start(model: ServeModel, cfg: ServerConfig) -> mb_common::Result<Server> {
        Server::start_with_registry(ModelRegistry::new(model)?, cfg)
    }

    /// Serve from an existing [`ModelRegistry`] (built with a loader
    /// when `POST /admin/reload` should swap in new generations).
    ///
    /// # Errors
    /// [`mb_common::Error::Io`] when the address cannot be bound.
    pub fn start_with_registry(
        registry: ModelRegistry,
        cfg: ServerConfig,
    ) -> mb_common::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| mb_common::Error::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr =
            listener.local_addr().map_err(|e| mb_common::Error::Io(format!("local_addr: {e}")))?;

        let admission =
            cfg.serve.effective_admission_limit(cfg.queue_capacity, cfg.workers, cfg.max_batch);
        let shared = Arc::new(Shared {
            queue: BatchQueue::new(cfg.queue_capacity.max(1)),
            gate: AdmissionGate::new(admission),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            registry,
            cfg,
            addr,
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server { shared, acceptor, workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current model generation id.
    pub fn generation(&self) -> u64 {
        self.shared.registry.generation_id()
    }

    /// Block until the server shuts down (via `POST /admin/shutdown`
    /// or a concurrent [`Server::shutdown`]); in-flight batches drain
    /// before this returns.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain queued work, join all
    /// server threads.
    pub fn shutdown(self) {
        self.shared.request_shutdown();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Handler threads are detached: an idle keep-alive connection
        // must not block shutdown, and the read timeout below bounds
        // their lifetime after the process stops serving.
        std::thread::spawn(move || handle_connection(stream, &shared));
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // A batch drained across a hot swap is carried here and served by
    // the *new* generation's linker after the rebuild below.
    let mut pending: Vec<Job> = Vec::with_capacity(shared.cfg.max_batch.max(1));
    loop {
        let generation = shared.registry.current();
        let linker = match generation.linker() {
            Ok(linker) => linker,
            Err(e) => {
                // Publishing validated this exact construction, so this
                // arm is unreachable in practice; losing one worker
                // beats taking the process down.
                eprintln!("mb-serve: worker failed to build linker: {e}");
                return;
            }
        };
        // This worker's link-result LRU. It lives exactly as long as
        // `linker`, so it only ever holds this generation's answers.
        let mut cache = ResultCache::new(shared.cfg.cache_capacity);
        loop {
            let drained = if pending.is_empty() {
                let margin = Duration::from_micros(shared.metrics.service_ewma_us());
                shared.queue.pop_batch_shed(shared.cfg.max_batch, |job| {
                    // Shed when one more batch's service time would
                    // already land past the job's deadline.
                    job.deadline < Instant::now() + margin
                })
            } else {
                crate::queue::Drained { batch: std::mem::take(&mut pending), shed: Vec::new() }
            };
            for job in drained.shed {
                shared.metrics.record_deadline_shed();
                shared.metrics.record_rejected();
                let _ = job.reply.send(Reply::Shed);
            }
            if drained.batch.is_empty() {
                if shared.queue.is_closed() && shared.queue.is_empty() {
                    return; // closed and drained
                }
                continue;
            }
            // Hot-swap check: a batch drained across a swap is served
            // by the new generation — rebuild the linker first.
            if shared.registry.generation_id() != generation.id {
                pending = drained.batch;
                break;
            }
            shared.metrics.record_batch(drained.batch.len());
            // Move the mentions out of the jobs: linking wants a slice
            // of mentions, replying wants only the senders.
            let (mentions, replies): (Vec<LinkedMention>, Vec<mpsc::Sender<Reply>>) =
                drained.batch.into_iter().map(|job| (job.mention, job.reply)).unzip();
            let (hits, misses) = (cache.hits(), cache.misses());
            let started = Instant::now();
            let outcome = link_cached(&linker, &mut cache, mentions);
            shared
                .metrics
                .record_service_us(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            shared.metrics.add_cache_counters(cache.hits() - hits, cache.misses() - misses);
            match outcome {
                Ok(results) => {
                    for (reply, result) in replies.into_iter().zip(results) {
                        // A dropped receiver just means the client went away.
                        let _ = reply.send(Reply::Done(result, Arc::clone(&generation)));
                    }
                }
                Err(e) => {
                    // Every job in the batch gets the typed failure;
                    // the worker stays up for the next drain.
                    let msg = e.to_string();
                    for reply in replies {
                        let _ = reply.send(Reply::Failed(msg.clone()));
                    }
                }
            }
        }
    }
}

/// A worker's link results by [`result_key`]: a hit is the exact result
/// a fresh link would compute on the same generation.
type ResultCache = LruCache<(Vec<u32>, usize), LinkResult>;

/// All that [`TwoStageLinker::link_batch`] reads of a mention: its
/// `mention_bag` and the token count of its `surface_bag`, which is that
/// bag's prefix. The bag alone is not enough: surface `"a b"` with no
/// context and surface `"a"` after left context `"b"` share it but
/// rerank differently.
fn result_key(linker: &TwoStageLinker<'_>, mention: &LinkedMention) -> (Vec<u32>, usize) {
    let bag = mention_bag(linker.vocab, &linker.cfg.input, mention);
    (bag, surface_bag(linker.vocab, mention).len())
}

/// Answer one drained batch through `cache`: look every mention up (one
/// hit or miss per job, as `/metrics` counts them), send the misses
/// through one `link_batch`, and cache their results in batch order.
///
/// # Errors
/// Propagates `link_batch` errors; [`mb_common::Error::Internal`] if it
/// returns fewer results than it was given mentions.
fn link_cached(
    linker: &TwoStageLinker<'_>,
    cache: &mut ResultCache,
    mentions: Vec<LinkedMention>,
) -> mb_common::Result<Vec<LinkResult>> {
    let mut looked_up = Vec::with_capacity(mentions.len());
    let mut misses = Vec::new();
    for mention in mentions {
        let key = result_key(linker, &mention);
        let hit = cache.get(&key).cloned();
        if hit.is_none() {
            misses.push(mention);
        }
        looked_up.push((key, hit));
    }
    let mut fresh = linker.link_batch(&misses)?.into_iter();
    looked_up
        .into_iter()
        .map(|(key, hit)| match hit {
            Some(hit) => Ok(hit),
            None => {
                let result = fresh.next().ok_or_else(|| {
                    mb_common::Error::Internal(
                        "link_batch returned fewer results than mentions".to_string(),
                    )
                })?;
                cache.put(key, result.clone());
                Ok(result)
            }
        })
        .collect()
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Bound blocking reads so handler threads cannot hang forever on a
    // silent peer (slow-loris); the bound is configuration, not a
    // constant, and 0 disables it.
    let _ = stream.set_read_timeout(shared.cfg.serve.read_timeout());
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_request(&mut reader, &shared.cfg.limits) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                shared.metrics.record_request();
                shared.metrics.record_response(e.status());
                let body = format!("{{\"error\":{}}}", json::escape(&e.to_string()));
                let _ = write_response(
                    &mut writer,
                    e.status(),
                    "application/json",
                    body.as_bytes(),
                    true,
                    &[],
                );
                return; // framing is unreliable after a parse error
            }
        };
        shared.metrics.record_request();
        let is_shutdown = req.method == "POST" && req.path == "/admin/shutdown";
        let closing = is_shutdown || req.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        let reply = route(&req, shared);
        shared.metrics.record_response(reply.status);
        let retry_after: Vec<(&str, String)> =
            reply.retry_after_s.map(|s| vec![("retry-after", s.to_string())]).unwrap_or_default();
        let written = write_response(
            &mut writer,
            reply.status,
            reply.content_type,
            reply.body.as_bytes(),
            closing,
            &retry_after,
        );
        if is_shutdown {
            // Trigger only after the response is flushed: once the
            // queue closes, the process may exit (and take this
            // detached handler thread with it) before a later write
            // would reach the client.
            shared.request_shutdown();
            return;
        }
        if written.is_err() || closing {
            return;
        }
    }
}

fn route(req: &Request, shared: &Arc<Shared>) -> HttpReply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let generation = shared.registry.current();
            let body = format!(
                "{{\"status\":\"ok\",\"domain\":{},\"entities\":{},\"generation\":{}}}",
                json::escape(&generation.model.domain),
                generation.model.dictionary.len(),
                generation.id
            );
            HttpReply::json(200, body)
        }
        ("GET", "/metrics") => HttpReply {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: shared.metrics.render(&shared.gauges()),
            retry_after_s: None,
        },
        // The handler triggers the actual shutdown AFTER this response
        // is flushed (see `handle_connection`).
        ("POST", "/admin/shutdown") => {
            HttpReply::json(200, "{\"status\":\"draining\"}".to_string())
        }
        ("POST", "/admin/reload") => handle_reload(req, shared),
        ("POST", "/link") => handle_link(req, shared),
        ("GET" | "POST" | "PUT" | "DELETE" | "HEAD", _) => {
            HttpReply::json(404, "{\"error\":\"no such endpoint\"}".to_string())
        }
        _ => HttpReply::json(405, "{\"error\":\"method not allowed\"}".to_string()),
    }
}

/// `POST /admin/reload`: pull a candidate generation (body `{"path":…}`
/// overrides the configured source) and hot-swap it. A body that is
/// not exactly that object answers 400; a corrupt or inconsistent
/// candidate answers 409 with the old generation still serving; a
/// concurrent reload answers 503 + `Retry-After`.
fn handle_reload(req: &Request, shared: &Arc<Shared>) -> HttpReply {
    let path = match reload_path(&req.body) {
        Ok(path) => path,
        Err(e) => return HttpReply::json(400, format!("{{\"error\":{}}}", json::escape(&e))),
    };
    match shared.registry.reload(path.as_deref()) {
        Ok(id) => HttpReply::json(200, format!("{{\"status\":\"swapped\",\"generation\":{id}}}")),
        // A reload already in flight sheds rather than conflicts.
        Err(mb_common::Error::Busy(msg)) => HttpReply::shed(&msg, shared.cfg.serve.retry_after_s),
        Err(e) => HttpReply::json(
            409,
            format!(
                "{{\"error\":{},\"generation\":{}}}",
                json::escape(&e.to_string()),
                shared.registry.generation_id()
            ),
        ),
    }
}

/// The source a reload body names: `None` for an empty body (the
/// configured source), else the string of an object whose only key is
/// `path`.
fn reload_path(body: &[u8]) -> Result<Option<PathBuf>, String> {
    if body.is_empty() {
        return Ok(None);
    }
    let doc = json::parse(body).map_err(|e| format!("bad reload body: {e}"))?;
    let only_path = matches!(&doc, Json::Obj(map) if map.len() == 1);
    match doc.get("path") {
        Some(Json::Str(path)) if only_path => Ok(Some(PathBuf::from(path))),
        _ => Err("bad reload body: want {\"path\": <string>}".to_string()),
    }
}

/// Parse a `/link` body into a mention, the answer size, and an
/// optional client deadline budget (ms).
fn parse_link_body(body: &[u8]) -> Result<(LinkedMention, usize, Option<u64>), String> {
    let doc = json::parse(body)?;
    let surface = doc
        .get("surface")
        .and_then(Json::as_str)
        .ok_or("missing string field \"surface\"")?
        .to_string();
    if surface.trim().is_empty() {
        return Err("\"surface\" must be non-empty".to_string());
    }
    let text = |key: &str| -> Result<String, String> {
        match doc.get(key) {
            None => Ok(String::new()),
            Some(v) => Ok(v.as_str().ok_or(format!("field {key:?} must be a string"))?.to_string()),
        }
    };
    let k = match doc.get("k") {
        None => 5,
        Some(v) => v.as_usize().ok_or("field \"k\" must be a non-negative integer")?,
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => {
            Some(v.as_usize().ok_or("field \"deadline_ms\" must be a non-negative integer")? as u64)
        }
    };
    let mention = LinkedMention {
        left: text("left")?,
        surface,
        right: text("right")?,
        // Serving has no gold label; id 0 only marks gold in training.
        entity: EntityId(0),
        category: OverlapCategory::LowOverlap,
    };
    Ok((mention, k, deadline_ms))
}

fn handle_link(req: &Request, shared: &Arc<Shared>) -> HttpReply {
    let (mention, k, requested_deadline) = match parse_link_body(&req.body) {
        Ok(parsed) => parsed,
        Err(e) => {
            return HttpReply::json(400, format!("{{\"error\":{}}}", json::escape(&e)));
        }
    };
    let scfg = shared.cfg.serve;
    let started = Instant::now();
    let deadline = started + Duration::from_millis(scfg.clamp_deadline_ms(requested_deadline));

    // Token-style admission: bound the requests inside the server so
    // overload rejects here, fast, instead of parking handler threads.
    let Some(_permit) = shared.gate.try_acquire() else {
        shared.metrics.record_admission_rejected();
        shared.metrics.record_rejected();
        return HttpReply::shed("admission limit reached, retry later", scfg.retry_after_s);
    };

    // Early shed: if the queue already holds more batches than this
    // deadline buys at the measured drain rate, reject before queueing.
    let ewma_us = shared.metrics.service_ewma_us();
    if ewma_us > 0 {
        let batches_ahead = (shared.queue.len() / shared.cfg.max_batch.max(1)) as u64 + 1;
        let wait = Duration::from_micros(batches_ahead.saturating_mul(ewma_us));
        if started + wait > deadline {
            shared.metrics.record_deadline_shed();
            shared.metrics.record_rejected();
            return HttpReply::shed("deadline cannot be met at current load", scfg.retry_after_s);
        }
    }

    let (tx, rx) = mpsc::channel();
    match shared.queue.try_push(Job { mention, reply: tx, deadline }) {
        Ok(()) => {}
        Err(PushError::Full(_)) => {
            shared.metrics.record_rejected();
            return HttpReply::shed("queue full, retry later", scfg.retry_after_s);
        }
        Err(PushError::Closed(_)) => {
            return HttpReply::shed("server is shutting down", scfg.retry_after_s);
        }
    }
    // The bound guards against a dead worker pool; in normal operation
    // (including shutdown drain) every queued job gets a reply.
    match rx.recv_timeout(scfg.reply_timeout()) {
        Ok(Reply::Done(result, generation)) => {
            shared
                .metrics
                .record_latency_us(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            HttpReply::json(200, render_result(&result, k, &generation))
        }
        Ok(Reply::Shed) => {
            HttpReply::shed("deadline exceeded while queued, retry later", scfg.retry_after_s)
        }
        Ok(Reply::Failed(msg)) => {
            HttpReply::json(500, format!("{{\"error\":{}}}", json::escape(&msg)))
        }
        Err(_) => {
            shared.metrics.record_reply_timeout();
            HttpReply::shed("no reply from worker pool", scfg.retry_after_s)
        }
    }
}

/// Render a [`LinkResult`] as the `/link` response document, with the
/// rerank-ordered top-`k` candidates, against the generation that
/// computed it (its entity ids are only meaningful in that KB).
fn render_result(result: &LinkResult, k: usize, generation: &Generation) -> String {
    // Pairing via `zip` (which truncates to the shorter side) instead
    // of parallel-array indexing keeps this panic-free even if the two
    // lists ever disagreed in length.
    let mut ranked: Vec<_> = result
        .retrieved
        .iter()
        .zip(&result.rerank_scores)
        .map(|(&(id, bi_score), &score)| (id, bi_score, score))
        .collect();
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    let candidates: Vec<String> = ranked
        .iter()
        .take(k)
        .map(|&(id, bi_score, score)| {
            let entity = generation.model.kb.entity(id);
            format!(
                "{{\"id\":{},\"title\":{},\"bi_score\":{},\"score\":{}}}",
                id.0,
                json::escape(&entity.title),
                json::num(bi_score),
                json::num(score)
            )
        })
        .collect();
    let predicted = match result.predicted {
        Some(id) => format!(
            "{{\"id\":{},\"title\":{}}}",
            id.0,
            json::escape(&generation.model.kb.entity(id).title)
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"domain\":{},\"generation\":{},\"predicted\":{},\"candidates\":[{}]}}",
        json::escape(&generation.model.domain),
        generation.id,
        predicted,
        candidates.join(",")
    )
}

#[cfg(test)]
mod tests {
    //! The worker cache against uncached `link_batch`, and replayed: the
    //! cache's recency order must be a function of the request stream
    //! alone. Filling it in `HashMap` order, say, would keep every result
    //! while evictions and hit counts drift between identical runs, so
    //! serving one stream twice from a fresh cache must reproduce all an
    //! observer can see.

    use super::*;
    use mb_check::{gen, prop_assert_eq};
    use mb_common::Rng;
    use mb_core::linker::LinkerConfig;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
    use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
    use mb_encoders::input::build_vocab;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    struct Fixture {
        world: World,
        vocab: mb_text::Vocab,
        bi: BiEncoder,
        cross: CrossEncoder,
        mentions: Vec<LinkedMention>,
    }

    impl Fixture {
        fn linker(&self) -> TwoStageLinker<'_> {
            let dict = self.world.kb().domain_entities(self.world.domain("TargetX").id);
            let cfg = LinkerConfig { k: 8, ..LinkerConfig::default() };
            TwoStageLinker::new(&self.bi, &self.cross, &self.vocab, self.world.kb(), dict, cfg)
        }
    }

    /// An untrained model, built once: neither replayability nor
    /// exactness depends on training.
    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = World::generate(WorldConfig::tiny(91));
            let vocab = build_vocab(world.kb(), [], 1);
            let domain = world.domain("TargetX").clone();
            let mut rng = Rng::seed_from_u64(4);
            let mentions =
                mb_datagen::mentions::generate_mentions(&world, &domain, 48, &mut rng).mentions;
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
            Fixture { world, vocab, bi, cross, mentions }
        })
    }

    /// Per result: the prediction, the candidate ids, then both stages'
    /// score bits.
    fn bits(results: &[LinkResult]) -> Vec<Vec<u64>> {
        results
            .iter()
            .map(|r| {
                let predicted = r.predicted.map_or(u64::MAX, |id| u64::from(id.0));
                let ids = r.retrieved.iter().map(|(id, _)| u64::from(id.0));
                let scores = r.retrieved.iter().map(|(_, s)| s).chain(&r.rerank_scores);
                std::iter::once(predicted).chain(ids).chain(scores.map(|s| s.to_bits())).collect()
            })
            .collect()
    }

    /// What one worker shows after serving `stream` as `chunk`-sized
    /// drained batches from a fresh cache: the results, the cache keys
    /// in recency order, and the hit and miss counters.
    type Observed = (Vec<Vec<u64>>, Vec<(Vec<u32>, usize)>, u64, u64);

    fn replay(
        linker: &TwoStageLinker<'_>,
        stream: &[LinkedMention],
        chunk: usize,
        capacity: usize,
    ) -> Observed {
        let mut cache = ResultCache::new(capacity);
        let mut results = Vec::new();
        for batch in stream.chunks(chunk) {
            results.extend(link_cached(linker, &mut cache, batch.to_vec()).expect("link"));
        }
        let keys = cache.keys_by_recency().into_iter().cloned().collect();
        (bits(&results), keys, cache.hits(), cache.misses())
    }

    mb_check::check! {
        #![config(cases = 16)]

        fn a_replayed_stream_replays_results_recency_and_counters(
            picks in gen::vec_of(gen::usize_in(0..48), 1..60),
            chunk in gen::usize_in(1..13),
            capacity in gen::usize_in(1..17),
        ) {
            let f = fixture();
            let linker = f.linker();
            // Repeats across and within drained batches; a small
            // capacity evicts between them.
            let stream: Vec<LinkedMention> =
                picks.iter().map(|&i| f.mentions[i].clone()).collect();
            let seen = replay(&linker, &stream, chunk, capacity);
            prop_assert_eq!(&seen, &replay(&linker, &stream, chunk, capacity));
            let uncached = bits(&linker.link_batch(&stream).expect("link"));
            prop_assert_eq!(&seen.0, &uncached, "the cache never changes a result");
            let distinct: BTreeSet<_> = stream.iter().map(|m| result_key(&linker, m)).collect();
            prop_assert_eq!(seen.1.len(), capacity.min(distinct.len()));
            prop_assert_eq!(seen.2 + seen.3, stream.len() as u64, "one lookup per job");
        }
    }

    #[test]
    fn capacity_zero_links_like_the_cache() {
        let f = fixture();
        let linker = f.linker();
        let stream: Vec<LinkedMention> = f.mentions.iter().chain(&f.mentions).cloned().collect();
        let cached = replay(&linker, &stream, 12, 16);
        let off = replay(&linker, &stream, 12, 0);
        assert_eq!(cached.0, off.0, "the cache never changes a result");
        assert_eq!(cached.1.len(), 16, "below the distinct count, the cache filled and evicted");
        assert!(off.1.is_empty() && off.2 == 0, "capacity 0 caches nothing");
    }

    /// Surface `"a b"` with no context and surface `"a"` after left
    /// context `"b"` have one `mention_bag`; keyed by the bag alone, the
    /// second would be answered with the first's rerank.
    #[test]
    fn the_key_tells_a_surface_from_its_context() {
        let f = fixture();
        let linker = f.linker();
        let tokens = f
            .mentions
            .iter()
            .map(|m| mb_text::tokenize(&m.surface))
            .find(|t| t.len() >= 2)
            .expect("a multi-token surface");
        let whole = LinkedMention {
            left: String::new(),
            surface: tokens.join(" "),
            right: String::new(),
            ..f.mentions[0].clone()
        };
        let split = LinkedMention {
            left: tokens[1..].join(" "),
            surface: tokens[0].clone(),
            ..whole.clone()
        };
        let bag = |m: &LinkedMention| mention_bag(linker.vocab, &linker.cfg.input, m);
        assert_eq!(bag(&whole), bag(&split));
        let want = bits(&linker.link_batch(&[whole.clone(), split.clone()]).expect("link"));
        assert_ne!(want[0], want[1], "the surface channel must tell the two apart");
        let mut cache = ResultCache::new(8);
        let mut got = Vec::new();
        for m in [whole, split] {
            got.extend(link_cached(&linker, &mut cache, vec![m]).expect("link"));
        }
        assert_eq!(bits(&got), want);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }
}
