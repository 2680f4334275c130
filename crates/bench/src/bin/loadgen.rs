//! `loadgen` — load generator for the `mb-serve` HTTP server.
//!
//! Two modes:
//!
//! - **Open-loop** (`--open-loop`): builds a synthetic world + model
//!   in-process, serves it over localhost and sweeps a ladder of
//!   *offered* QPS rungs (`--qps`), pacing arrivals by the clock
//!   instead of waiting for responses, so it can overload the server.
//!   Prints the p50/p99-vs-offered-QPS table on stderr and writes the
//!   gate-format `BENCH_serve_openloop.json` that
//!   `scripts/bench_gate.sh` pairs against the merge-base's.
//!   Requests carry a `deadline_ms` budget so past-saturation rungs
//!   degrade to fast 503 + `Retry-After` shedding, which the run
//!   records separately from served latencies.
//! - **External** (`--addr HOST:PORT` or `--addr-file PATH`): drives an
//!   already-running server with a closed loop (the CI `serve-smoke`
//!   stage). `--strict` exits non-zero unless every response was 2xx,
//!   `--check-metrics` requires every `/metrics` line `benchmark/`
//!   scrapes and a cache hit, and `--shutdown` ends the run with a
//!   graceful `POST /admin/shutdown`.
//!
//! An unknown or repeated flag, or one the chosen mode does not read,
//! is an error naming it.
//!
//! ```sh
//! cargo run --release -p mb-bench --bin loadgen -- --open-loop \
//!     --qps 40,160,640,2500 --duration-ms 2000
//! cargo run --release -p mb-bench --bin loadgen -- --addr 127.0.0.1:7878 \
//!     --requests 200 --concurrency 8 --strict --check-metrics --shutdown
//! ```

use mb_common::Rng;
use mb_core::linker::LinkerConfig;
use mb_datagen::world::{DomainRole, DomainSpec};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::build_vocab;
use mb_serve::{ServeModel, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
loadgen — load generator for mb-serve (open-loop and external)

USAGE:
  loadgen --open-loop [--qps <a,b,c>] [--duration-ms <n>]
          [--deadline-ms <n>] [--concurrency <n>] [--max-batch <n>]
  loadgen (--addr <host:port> | --addr-file <path>) [--requests <n>]
          [--concurrency <n>] [--strict] [--check-metrics] [--shutdown]

Open-loop mode paces arrivals by the wall clock (offered load), so it
can push the server past saturation; each request carries a
deadline_ms budget and past-saturation rungs are expected to shed
with fast 503 + Retry-After instead of queueing without bound. It
prints the latency-vs-offered-QPS table and writes the per-rung p50s
into BENCH_serve_openloop.json for scripts/bench_gate.sh.";

/// Flags that take no value.
const SWITCHES: [&str; 5] = ["open-loop", "strict", "check-metrics", "shutdown", "help"];
/// The flags each mode reads (`--help` aside). A flag of the other
/// mode is an error too, not silently ignored.
const OPEN_LOOP_FLAGS: [&str; 6] =
    ["open-loop", "qps", "duration-ms", "deadline-ms", "concurrency", "max-batch"];
const EXTERNAL_FLAGS: [&str; 7] =
    ["addr", "addr-file", "requests", "concurrency", "strict", "check-metrics", "shutdown"];

fn run(args: &[String]) -> Result<(), String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument {:?}\n{USAGE}", args[i]));
        };
        if key != "help" && !OPEN_LOOP_FLAGS.contains(&key) && !EXTERNAL_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}\n{USAGE}"));
        }
        let boolean = SWITCHES.contains(&key);
        let value = if boolean {
            "true".to_string()
        } else {
            args.get(i + 1).cloned().ok_or(format!("--{key} needs a value\n{USAGE}"))?
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag --{key} given more than once"));
        }
        i += if boolean { 1 } else { 2 };
    }
    if flags.contains_key("help") {
        println!("{USAGE}");
        return Ok(());
    }
    let (mode, reads) = if flags.contains_key("open-loop") {
        ("--open-loop", &OPEN_LOOP_FLAGS[..])
    } else {
        ("an external run", &EXTERNAL_FLAGS[..])
    };
    if let Some(key) = flags.keys().filter(|k| !reads.contains(&k.as_str())).min() {
        return Err(format!("flag --{key} does not apply to {mode}\n{USAGE}"));
    }
    let parse = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    };
    let concurrency = parse("concurrency", 8)?.max(1);

    if flags.contains_key("open-loop") {
        // Default the batch limit to the offered concurrency: a batch
        // can never exceed the number of in-flight requests.
        let max_batch = parse("max-batch", concurrency)?.max(2);
        let duration_ms = parse("duration-ms", 2_000)?.max(100) as u64;
        let deadline_ms = parse("deadline-ms", 1_000)?.max(1) as u64;
        let qps: Vec<usize> = flags
            .get("qps")
            .map(String::as_str)
            .unwrap_or("40,160,640,2500")
            .split(',')
            .map(|s| s.trim().parse::<usize>().map_err(|e| format!("--qps {s:?}: {e}")))
            .collect::<Result<_, _>>()?;
        if qps.is_empty() || qps.contains(&0) {
            return Err("--qps needs a comma-separated list of positive rates".to_string());
        }
        return open_loop(&qps, duration_ms, deadline_ms, concurrency, max_batch);
    }

    let addr = match (flags.get("addr"), flags.get("addr-file")) {
        (Some(a), _) => a.clone(),
        (None, Some(path)) => wait_for_addr_file(path)?,
        (None, None) => return Err(format!("need --addr, --addr-file, or --open-loop\n{USAGE}")),
    };
    let requests = parse("requests", 200)?;
    let stats = drive(&addr, requests, concurrency, &demo_payloads())?;
    stats.print(&format!("external {addr}"));
    if flags.contains_key("check-metrics") {
        let (_, metrics) = fetch(&addr, "GET", "/metrics", b"")?;
        check_metrics(&metrics)?;
        eprintln!("metrics: ok ({} bytes)", metrics.len());
    }
    if flags.contains_key("shutdown") {
        let (status, _) = fetch(&addr, "POST", "/admin/shutdown", b"")?;
        if status != 200 {
            return Err(format!("shutdown returned {status}"));
        }
        eprintln!("shutdown: requested");
    }
    if flags.contains_key("strict") && stats.non_2xx > 0 {
        return Err(format!("{} of {} responses were not 2xx", stats.non_2xx, stats.total()));
    }
    Ok(())
}

/// The `/metrics` lines `benchmark/src/layers.rs` scrapes from a
/// running server: a rename must fail here, not only in its traced pass.
const SCRAPED_METRICS: [&str; 7] = [
    "serve_batched_requests_total",
    "serve_batches_total",
    "serve_cache_hit_rate",
    "serve_latency_us_sum",
    "serve_latency_us_count",
    "serve_deadline_shed_total",
    "serve_rejected_total",
];

/// Require every [`SCRAPED_METRICS`] line and a cache hit: the demo
/// payloads repeat, so a result cache that never hits is broken.
fn check_metrics(metrics: &str) -> Result<(), String> {
    let value = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
            .ok_or(format!("/metrics has no {name} line"))
    };
    for name in SCRAPED_METRICS {
        value(name)?;
    }
    if value("serve_cache_hits_total")? <= 0.0 {
        return Err("no cache hits although the demo payloads repeat".to_string());
    }
    Ok(())
}

/// Poll for the server's `--addr-file` (written after binding an
/// ephemeral port) for up to 60 s.
fn wait_for_addr_file(path: &str) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => return Ok(s.trim().to_string()),
            _ if Instant::now() > deadline => {
                return Err(format!("timed out waiting for addr file {path}"))
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

// ---------------------------------------------------------------- client

struct LoadStats {
    ok_2xx: u64,
    non_2xx: u64,
    elapsed: Duration,
    /// Sorted request latencies in microseconds.
    latencies_us: Vec<u64>,
}

impl LoadStats {
    fn total(&self) -> u64 {
        self.ok_2xx + self.non_2xx
    }

    fn rps(&self) -> f64 {
        self.total() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn print(&self, label: &str) {
        eprintln!(
            "{label}: {} requests ({} non-2xx) in {:.2?}  {:.1} req/s  p50 {}µs  p95 {}µs  p99 {}µs",
            self.total(),
            self.non_2xx,
            self.elapsed,
            self.rps(),
            quantile(&self.latencies_us, 0.50),
            quantile(&self.latencies_us, 0.95),
            quantile(&self.latencies_us, 0.99),
        );
    }
}

/// One keep-alive HTTP exchange on an open connection: the status, and
/// whether the response carried a `Retry-After` header (every 503 from
/// mb-serve must).
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    raw: &[u8],
) -> Result<(u16, bool), String> {
    writer.write_all(raw).map_err(|e| format!("send: {e}"))?;
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut retry_after = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|e| format!("content-length: {e}"))?;
        }
        if lower.starts_with("retry-after:") {
            retry_after = true;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    Ok((status, retry_after))
}

/// One request on a fresh connection (control endpoints).
fn fetch(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    writer.write_all(&raw).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("bad status line {status_line:?}"))?;
    let mut text = String::new();
    reader.read_to_string(&mut text).map_err(|e| format!("read: {e}"))?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or(text);
    Ok((status, body))
}

/// Per-client-thread tally: (2xx count, non-2xx count, latencies µs).
type ClientTally = Result<(u64, u64, Vec<u64>), String>;

/// Closed-loop load: `concurrency` client threads, each with one
/// keep-alive connection, pulling request indices from a shared
/// counter until `requests` are done.
fn drive(
    addr: &str,
    requests: usize,
    concurrency: usize,
    payloads: &[Vec<u8>],
) -> Result<LoadStats, String> {
    assert!(!payloads.is_empty());
    let counter = AtomicU64::new(0);
    let started = Instant::now();
    let results: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let counter = &counter;
                scope.spawn(move || -> ClientTally {
                    let stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream);
                    let (mut ok, mut bad) = (0u64, 0u64);
                    let mut lats = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= requests {
                            return Ok((ok, bad, lats));
                        }
                        let t0 = Instant::now();
                        let (status, _) =
                            exchange(&mut writer, &mut reader, &payloads[i % payloads.len()])?;
                        lats.push(t0.elapsed().as_micros() as u64);
                        if (200..300).contains(&status) {
                            ok += 1;
                        } else {
                            bad += 1;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise a client-thread panic with its own payload
                // instead of replacing it with a fresh one here.
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let mut ok_2xx = 0;
    let mut non_2xx = 0;
    let mut latencies_us = Vec::with_capacity(requests);
    for r in results {
        let (ok, bad, lats) = r?;
        ok_2xx += ok;
        non_2xx += bad;
        latencies_us.extend(lats);
    }
    latencies_us.sort_unstable();
    Ok(LoadStats { ok_2xx, non_2xx, elapsed, latencies_us })
}

/// `/link` request bytes, optionally carrying a `deadline_ms` budget
/// (the open-loop sweep sets one so overload rungs shed instead of
/// queueing without bound).
fn link_payload(surface: &str, left: &str, right: &str, deadline_ms: Option<u64>) -> Vec<u8> {
    let deadline = match deadline_ms {
        Some(ms) => format!(",\"deadline_ms\":{ms}"),
        None => String::new(),
    };
    let body = format!(
        "{{\"surface\":{},\"left\":{},\"right\":{},\"k\":3{deadline}}}",
        mb_serve::json::escape(surface),
        mb_serve::json::escape(left),
        mb_serve::json::escape(right),
    );
    let mut raw = format!(
        "POST /link HTTP/1.1\r\nhost: loadgen\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// Fixed payloads for external servers (any text is safe: unknown
/// tokens map to UNK).
fn demo_payloads() -> Vec<Vec<u8>> {
    [
        ("the dark magician", "after the duel, ", " summoned a trap"),
        ("castle set", "the new ", " sold out in minutes"),
        ("warp drive", "engineering reported the ", " was offline"),
        ("ancient sword", "the museum displayed an ", " from the ruins"),
        ("red dragon", "a ", " appeared on the field"),
        ("space station", "the crew docked at the ", " at dawn"),
        ("trading card", "a rare ", " changed hands"),
        ("head judge", "the ", " reviewed the ruling"),
    ]
    .iter()
    .map(|(s, l, r)| link_payload(s, l, r, None))
    .collect()
}

// ----------------------------------------------------- open-loop sweep

/// Build the benchmark model. Untrained weights are fine — serving
/// cost does not depend on parameter values — but the MODEL SIZE
/// matters: the embedding tables are what a forward gathers from, so
/// the bench uses a realistic vocabulary rather than the test-sized
/// tiny world.
fn bench_model() -> (ServeModel, Vec<LinkedMention>) {
    // World generation panics only when a WorldConfig exhausts the KB
    // id space; this fixed bench config is far below those caps.
    // mb-lint: allow(panic-reach) -- fixed bench config cannot exhaust the KB id space
    let world = World::generate(WorldConfig {
        seed: 1_234,
        general_vocab: 4_000,
        ambiguity_rate: 0.15,
        domains: vec![
            DomainSpec::new("SrcA", DomainRole::Train, 120, 160, 0.4),
            DomainSpec::new("TargetX", DomainRole::Test, 400, 600, 0.6),
        ],
    });
    // Pad the vocabulary to production scale (~24k types, the order of
    // a wordpiece vocab): a test-sized vocab would keep the embedding
    // tables cache-resident and understate the cost of a forward.
    let filler: Vec<String> = (0..24_000).map(|i| format!("tok{i}")).collect();
    let extra = filler.join(" ");
    let vocab = build_vocab(world.kb(), [extra.as_str()], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(7);
    let mentions = mb_datagen::mentions::generate_mentions(&world, &domain, 64, &mut rng).mentions;
    let bi = BiEncoder::new(
        &vocab,
        BiEncoderConfig { emb_dim: 64, hidden: 64, out_dim: 64, ..Default::default() },
        &mut Rng::seed_from_u64(1),
    );
    let cross = CrossEncoder::new(
        &vocab,
        CrossEncoderConfig { emb_dim: 64, hidden: 64, ..Default::default() },
        &mut Rng::seed_from_u64(2),
    );
    let model = ServeModel::new(
        vocab,
        world.kb().clone(),
        world.kb().domain_entities(domain.id).to_vec(),
        bi,
        cross,
        LinkerConfig { k: 16, ..LinkerConfig::default() },
        domain.name,
    );
    (model, mentions)
}

/// Per-rung tally of an open-loop run.
struct RungStats {
    /// Offered rate in requests per second.
    qps: usize,
    ok_2xx: u64,
    shed_503: u64,
    /// 503s that arrived without a `Retry-After` header (must be 0).
    shed_without_retry_after: u64,
    errors: u64,
    /// Arrivals that started more than one full schedule interval late
    /// (the client could not sustain the offered rate — the rung is
    /// past saturation, so "offered" overstates actual pressure).
    late: u64,
    elapsed: Duration,
    /// Sorted 2xx latencies in microseconds.
    latencies_us: Vec<u64>,
    /// Sorted 503 latencies in microseconds (shedding must be fast).
    shed_latencies_us: Vec<u64>,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl RungStats {
    fn achieved_rps(&self) -> f64 {
        self.ok_2xx as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn print(&self) {
        eprintln!(
            "qps {:>5}: ok {:>5}  shed {:>5}  err {:>3}  late {:>5}  achieved {:>7.1} req/s  p50 {:>6}µs  p99 {:>7}µs  shed-p99 {:>6}µs",
            self.qps,
            self.ok_2xx,
            self.shed_503,
            self.errors,
            self.late,
            self.achieved_rps(),
            quantile(&self.latencies_us, 0.50),
            quantile(&self.latencies_us, 0.99),
            quantile(&self.shed_latencies_us, 0.99),
        );
    }
}

/// Per-thread open-loop tally:
/// (ok, shed, shed-without-retry-after, errors, late, 2xx µs, 503 µs).
type OpenTally = Result<(u64, u64, u64, u64, u64, Vec<u64>, Vec<u64>), String>;

/// Open-loop load at a fixed offered rate: arrival `k` is due at
/// `start + k·interval` regardless of how earlier requests fared.
/// Thread `t` of `C` serves arrivals `t, t+C, …` on one keep-alive
/// connection (reconnecting on error), sleeping until each arrival is
/// due; an arrival more than one interval late is counted instead of
/// silently re-pacing, so saturation is visible in the report.
fn open_loop_drive(
    addr: &str,
    qps: usize,
    duration_ms: u64,
    concurrency: usize,
    payloads: &[Vec<u8>],
) -> Result<RungStats, String> {
    assert!(!payloads.is_empty() && qps > 0);
    let offered = (qps as u64 * duration_ms / 1_000).max(1);
    let interval = Duration::from_nanos(1_000_000_000 / qps as u64);
    // Small lead so every thread is connected before arrival 0 is due.
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<OpenTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|t| {
                scope.spawn(move || -> OpenTally {
                    let connect = || -> Result<(TcpStream, BufReader<TcpStream>), String> {
                        let stream =
                            TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                        let writer = stream.try_clone().map_err(|e| e.to_string())?;
                        Ok((writer, BufReader::new(stream)))
                    };
                    let (mut writer, mut reader) = connect()?;
                    let (mut ok, mut shed, mut no_ra, mut errors, mut late) = (0, 0, 0, 0, 0);
                    let (mut lats, mut shed_lats) = (Vec::new(), Vec::new());
                    let mut k = t as u64;
                    while k < offered {
                        let due = start + interval * k as u32;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now > due + interval {
                            late += 1;
                        }
                        let t0 = Instant::now();
                        let payload = &payloads[k as usize % payloads.len()];
                        match exchange(&mut writer, &mut reader, payload) {
                            Ok((status, retry_after)) => {
                                let us = t0.elapsed().as_micros() as u64;
                                if (200..300).contains(&status) {
                                    ok += 1;
                                    lats.push(us);
                                } else if status == 503 {
                                    shed += 1;
                                    shed_lats.push(us);
                                    if !retry_after {
                                        no_ra += 1;
                                    }
                                } else {
                                    errors += 1;
                                }
                            }
                            Err(_) => {
                                errors += 1;
                                (writer, reader) = connect()?;
                            }
                        }
                        k += concurrency as u64;
                    }
                    Ok((ok, shed, no_ra, errors, late, lats, shed_lats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's panic payload, as in drive().
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let elapsed = start.elapsed();
    let mut stats = RungStats {
        qps,
        ok_2xx: 0,
        shed_503: 0,
        shed_without_retry_after: 0,
        errors: 0,
        late: 0,
        elapsed,
        latencies_us: Vec::new(),
        shed_latencies_us: Vec::new(),
    };
    for r in results {
        let (ok, shed, no_ra, errors, late, lats, shed_lats) = r?;
        stats.ok_2xx += ok;
        stats.shed_503 += shed;
        stats.shed_without_retry_after += no_ra;
        stats.errors += errors;
        stats.late += late;
        stats.latencies_us.extend(lats);
        stats.shed_latencies_us.extend(shed_lats);
    }
    stats.latencies_us.sort_unstable();
    stats.shed_latencies_us.sort_unstable();
    Ok(stats)
}

/// Write the gate-format `BENCH_serve_openloop.json`: one p50 per rung.
fn write_openloop_report(rungs: &[RungStats]) {
    let gate_results: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"serve/openloop/qps{}/p50\",\"median_ns\":{}}}",
                r.qps,
                quantile(&r.latencies_us, 0.50) * 1_000
            )
        })
        .collect();
    let gate = format!("{{\"kind\":\"bench\",\"results\":[{}]}}", gate_results.join(","));
    mb_bench::harness::write_json("BENCH_serve_openloop", &gate);
}

fn open_loop(
    qps: &[usize],
    duration_ms: u64,
    deadline_ms: u64,
    concurrency: usize,
    max_batch: usize,
) -> Result<(), String> {
    eprintln!("building model …");
    let (model, mentions) = bench_model();
    let payloads: Vec<Vec<u8>> = mentions
        .iter()
        .map(|m| link_payload(&m.surface, &m.left, &m.right, Some(deadline_ms)))
        .collect();
    let cfg = ServerConfig {
        max_batch,
        // Same isolation as the closed-loop bench: one worker, cache
        // off, so rungs measure the batching engine and the shedding
        // policy, not thread parallelism or cache luck.
        workers: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(model, cfg).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr().to_string();
    // Warm up (fills the service-time EWMA the shedding policy uses).
    drive(&addr, 64, concurrency, &payloads)?;

    let mut rungs = Vec::new();
    for &q in qps {
        let stats = open_loop_drive(&addr, q, duration_ms, concurrency, &payloads)?;
        stats.print();
        rungs.push(stats);
        // Let the queue fully drain between rungs.
        std::thread::sleep(Duration::from_millis(100));
    }
    server.shutdown();

    let torn: u64 = rungs.iter().map(|r| r.shed_without_retry_after).sum();
    if torn > 0 {
        return Err(format!("{torn} 503 responses lacked a Retry-After header"));
    }
    let errors: u64 = rungs.iter().map(|r| r.errors).sum();
    if errors > 0 {
        return Err(format!("{errors} responses were neither 2xx nor 503"));
    }
    write_openloop_report(&rungs);
    println!(
        "BENCH_serve_openloop: {} rungs, peak achieved {:.1} req/s",
        rungs.len(),
        rungs.iter().map(RungStats::achieved_rps).fold(0.0, f64::max),
    );
    Ok(())
}
