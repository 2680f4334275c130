//! `metablink` — command-line interface to the reproduction.
//!
//! ```text
//! metablink generate --seed 42 --scale small
//! metablink train    --seed 42 --scale small --domain Lego --method metablink --source syn+seed --out model_dir
//! metablink evaluate --model model_dir
//! metablink link     --model model_dir --left "after the duel, " --surface "the dark magician" --right " summoned a trap"
//! ```
//!
//! A model directory is `model.mbc` — one `mb-params v2` checkpoint
//! holding both encoders — plus `manifest.txt` recording the benchmark
//! configuration, so a model can be reloaded without shipping the
//! (deterministically regenerable) benchmark itself. Directories from
//! before the single file (one `mb-params v1` document per encoder,
//! [`LEGACY_FILES`]) still load; nothing writes them.

use metablink::common::storage::DiskStorage;
use metablink::common::Rng;
use metablink::core::pipeline::{train, DataSource, MetaBlinkConfig, Method, BI_KEY, CROSS_KEY};
use metablink::core::{LinkerConfig, TwoStageLinker};
use metablink::datagen::LinkedMention;
use metablink::encoders::biencoder::BiEncoder;
use metablink::encoders::crossencoder::CrossEncoder;
use metablink::eval::{ContextConfig, ExperimentContext};
use metablink::serve::{ModelLoader, ModelRegistry, ServeConfig, ServeModel, Server, ServerConfig};
use metablink::tensor::checkpoint::{Checkpoint, V1_PARAMS_KEY};
use metablink::text::{OverlapCategory, Vocab};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "lint" {
        // mb-lint owns its flag parsing (and its own --help).
        return ExitCode::from(metablink::lint::cli::run(rest));
    }
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (run, flags): Command = match cmd.as_str() {
        "generate" => (cmd_generate, &["seed", "scale"]),
        "train" => (cmd_train, &["seed", "scale", "domain", "method", "source", "out", "threads"]),
        "evaluate" => (cmd_evaluate, &["model", "limit", "threads"]),
        "link" => (cmd_link, &["model", "surface", "left", "right", "k"]),
        "serve" => (cmd_serve, SERVE_FLAGS),
        // "lint" is dispatched above, before flag parsing.
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_flags(cmd, flags, rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand: what runs it, and the flags it takes.
type Command = (fn(&HashMap<String, String>) -> Result<(), String>, &'static [&'static str]);

/// Every flag `serve` takes (see [`USAGE`]).
const SERVE_FLAGS: &[&str] = &[
    "model",
    "addr",
    "addr-file",
    "max-batch",
    "queue-capacity",
    "cache-capacity",
    "workers",
    "threads",
    "read-timeout-ms",
    "reply-timeout-ms",
    "default-deadline-ms",
    "max-deadline-ms",
    "retry-after-s",
    "admission-limit",
    "watch-interval-ms",
];

const USAGE: &str = "\
metablink — few-shot entity linking by meta-learning (ICDE 2022 reproduction)

USAGE:
  metablink generate  --seed <u64> --scale <small|bench>
  metablink train     --seed <u64> --scale <small|bench> --domain <name>
                      --method <blink|dl4el|metablink> --source <seed|syn|syn+seed|syn*+seed|...>
                      --out <dir> [--threads <n>]
  metablink evaluate  --model <dir> [--limit <n>] [--threads <n>]
  metablink link      --model <dir> --surface <text> [--left <text>] [--right <text>] [--k <n>]
  metablink serve     --model <dir> [--addr <host:port>] [--addr-file <path>]
                      [--max-batch <n>] [--queue-capacity <n>] [--cache-capacity <n>]
                      [--workers <n>] [--threads <n>]
                      [--read-timeout-ms <n>] [--reply-timeout-ms <n>]
                      [--default-deadline-ms <n>] [--max-deadline-ms <n>]
                      [--retry-after-s <n>] [--admission-limit <n>]
                      [--watch-interval-ms <n>]
  metablink lint      [--root <dir>] [--json]
  metablink lint      --explain <rule>

serve runs an HTTP server over the trained model: POST /link answers
linking requests (requests that queue while a worker is busy are fused
into one forward pass), GET /healthz and GET /metrics report status,
POST /admin/reload hot-swaps the next model.mbc generation without
dropping requests, POST /admin/shutdown drains in-flight work and
exits. --addr defaults to 127.0.0.1:7878; port 0 picks an ephemeral
port, and --addr-file writes the bound address for scripts to discover
it. The resilience knobs mirror mb_serve::ServeConfig: per-request
deadline budgets (clients may send \"deadline_ms\", capped by
--max-deadline-ms) shed queued work with 503 + Retry-After once they
cannot be met, --admission-limit bounds requests inside the server
(0 sizes it from the queue), and --watch-interval-ms polls model.mbc
and reloads on change (0 disables).

lint runs the in-repo static-analysis pass on the workspace's own
sources: panic-freedom, determinism, lock discipline and hot-loop
allocation — each reported at the site and at every call that reaches
one over the workspace call graph (panic-reach / det-taint /
lock-across-call / alloc-in-hot-loop) — plus the unsafe gate and the
other site-local rules. Any finding fails the run (exit 1). --explain
<rule> prints what a rule means, why it exists, and how to fix or audit
a finding. `metablink lint --help` lists all flags.

train, evaluate and serve accept --threads <n> (default: the
MB_THREADS environment variable, else 1) to fan work out over worker
threads. Results are bit-identical for every thread count: all
parallel paths partition by data, never by worker count.";

/// The `--flag value` pairs of one subcommand. A flag `cmd` does not
/// take, a flag with no value (or one that is itself a `--flag`) and a
/// stray positional are each an error naming the offender — a typo'd
/// `--seed` must not train the default model silently.
fn parse_flags(
    cmd: &str,
    allowed: &[&str],
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {arg:?} ({cmd} takes only --flag value pairs)"
            ));
        };
        if !allowed.contains(&key) {
            let takes: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
            return Err(format!("unknown flag --{key} for {cmd} (it takes {})", takes.join(", ")));
        }
        match args.next() {
            Some(value) if !value.starts_with("--") => map.insert(key.to_string(), value.clone()),
            _ => return Err(format!("flag --{key} needs a value")),
        };
    }
    Ok(map)
}

fn flag<'a>(opts: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map(String::as_str).unwrap_or(default)
}

/// Worker-thread count: `--threads` flag, else the `MB_THREADS`
/// environment variable, else 1. This is the *only* place the process
/// environment feeds a thread count — libraries take an explicit
/// [`metablink::par::Threads`] and never read ambient state, so any
/// value here changes throughput but never results.
fn threads_flag(opts: &HashMap<String, String>) -> Result<metablink::par::Threads, String> {
    let n: usize = match opts.get("threads") {
        Some(v) => v.parse().map_err(|e| format!("--threads: {e}"))?,
        None => match std::env::var("MB_THREADS") {
            Ok(v) => v.parse().map_err(|e| format!("MB_THREADS: {e}"))?,
            Err(_) => 1,
        },
    };
    if n == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(metablink::par::Threads::new(n))
}

fn context(seed: u64, scale: &str) -> Result<ExperimentContext, String> {
    let cfg = match scale {
        "small" => ContextConfig::small(seed),
        "bench" => ContextConfig::bench_default(seed),
        other => return Err(format!("unknown scale {other:?} (small|bench)")),
    };
    eprintln!("generating benchmark (seed {seed}, scale {scale}) …");
    Ok(ExperimentContext::build(cfg))
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(opts, "seed", "42").parse().map_err(|e| format!("--seed: {e}"))?;
    let ctx = context(seed, flag(opts, "scale", "small"))?;
    let world = ctx.dataset.world();
    println!("{:<20} {:>9} {:>9} {:>9}", "domain", "entities", "mentions", "role");
    for d in world.domains() {
        let role = format!("{:?}", d.role);
        println!(
            "{:<20} {:>9} {:>9} {:>9}",
            d.name,
            world.kb().domain_entities(d.id).len(),
            ctx.dataset.mentions(&d.name).len(),
            role
        );
    }
    for name in ctx.test_domains() {
        let syn = ctx.syn_of(&name);
        println!(
            "synthetic[{name}]: {} exact-match pairs, {} rewritten ({:.1}% noise)",
            syn.exact.len(),
            syn.rewritten.len(),
            100.0 * syn.noise_rate()
        );
    }
    Ok(())
}

fn parse_method(s: &str) -> Result<Method, String> {
    match s {
        "blink" => Ok(Method::Blink),
        "dl4el" => Ok(Method::Dl4el),
        "metablink" => Ok(Method::MetaBlink),
        other => Err(format!("unknown method {other:?}")),
    }
}

fn parse_source(s: &str) -> Result<DataSource, String> {
    match s.to_lowercase().as_str() {
        "seed" => Ok(DataSource::Seed),
        "exact" | "exact-match" => Ok(DataSource::ExactMatch),
        "syn" => Ok(DataSource::Syn),
        "syn*" => Ok(DataSource::SynStar),
        "syn+seed" => Ok(DataSource::SynSeed),
        "syn*+seed" => Ok(DataSource::SynStarSeed),
        "general" => Ok(DataSource::General),
        "general+seed" => Ok(DataSource::GeneralSeed),
        "general+syn+seed" => Ok(DataSource::GeneralSynSeed),
        "general+syn*+seed" => Ok(DataSource::GeneralSynStarSeed),
        other => Err(format!("unknown source {other:?}")),
    }
}

/// Manifest tying a checkpoint to its (regenerable) benchmark.
struct Manifest {
    seed: u64,
    scale: String,
    domain: String,
}

impl Manifest {
    fn save(&self, dir: &Path) -> Result<(), String> {
        let text = format!("seed={}\nscale={}\ndomain={}\n", self.seed, self.scale, self.domain);
        std::fs::write(dir.join("manifest.txt"), text).map_err(|e| e.to_string())
    }

    fn load(dir: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(dir.join("manifest.txt")).map_err(|e| e.to_string())?;
        let mut map = HashMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                map.insert(k.to_string(), v.to_string());
            }
        }
        Ok(Manifest {
            seed: map.get("seed").and_then(|s| s.parse().ok()).ok_or("manifest: bad seed")?,
            scale: map.get("scale").cloned().ok_or("manifest: missing scale")?,
            domain: map.get("domain").cloned().ok_or("manifest: missing domain")?,
        })
    }
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(opts, "seed", "42").parse().map_err(|e| format!("--seed: {e}"))?;
    let scale = flag(opts, "scale", "small").to_string();
    let domain = flag(opts, "domain", "Lego").to_string();
    let method = parse_method(flag(opts, "method", "metablink"))?;
    let source = parse_source(flag(opts, "source", "syn+seed"))?;
    let out = PathBuf::from(flag(opts, "out", "metablink_model"));

    let ctx = context(seed, &scale)?;
    if !ctx.test_domains().contains(&domain) {
        return Err(format!("{domain:?} is not a test domain ({:?})", ctx.test_domains()));
    }
    let task = ctx.task(&domain);
    let mut cfg = scale_config(&scale);
    cfg.set_threads(threads_flag(opts)?);
    eprintln!("training {} on {} ({domain}) …", method.label(), source.label());
    let model = train(&task, method, source, &cfg);
    let metrics = model.evaluate(&task, &ctx.dataset.split(&domain).test);
    println!(
        "test: R@{} {:.2}%  N.Acc {:.2}%  U.Acc {:.2}%",
        cfg.linker.k, metrics.recall_at_k, metrics.normalized_acc, metrics.unnormalized_acc
    );

    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    save_checkpoint(&out, &model.bi, &model.cross)?;
    Manifest { seed, scale, domain }.save(&out)?;
    println!("model written to {}", out.display());
    Ok(())
}

/// The model directory's one model file.
const MODEL_FILE: &str = "model.mbc";

/// What a model directory held before [`MODEL_FILE`]: one `mb-params
/// v1` document per encoder. Read by [`load_checkpoint`], never written.
const LEGACY_FILES: [(&str, &str); 2] =
    [(BI_KEY, "biencoder.mbp"), (CROSS_KEY, "crossencoder.mbp")];

/// Write [`MODEL_FILE`]: both encoders under their pipeline keys.
fn save_checkpoint(dir: &Path, bi: &BiEncoder, cross: &CrossEncoder) -> Result<(), String> {
    let mut ck = Checkpoint::new();
    ck.params.insert(BI_KEY.to_string(), bi.params().clone());
    ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
    ck.save(&mut DiskStorage::new(), &dir.join(MODEL_FILE)).map_err(|e| e.to_string())
}

/// Load the directory's model — the one reader behind `evaluate`,
/// `link` and `serve`: [`MODEL_FILE`] when present, otherwise the
/// legacy per-encoder files assembled under the same keys.
fn load_checkpoint(dir: &Path) -> Result<Checkpoint, String> {
    let mut storage = DiskStorage::new();
    let model = dir.join(MODEL_FILE);
    if model.exists() {
        return Checkpoint::load(&mut storage, &model).map_err(|e| e.to_string());
    }
    let mut ck = Checkpoint::new();
    for (key, file) in LEGACY_FILES {
        let params = Checkpoint::load(&mut storage, &dir.join(file))
            .map_err(|e| e.to_string())?
            .params
            .remove(V1_PARAMS_KEY)
            .ok_or_else(|| format!("{file} is not an mb-params v1 document"))?;
        ck.params.insert(key.to_string(), params);
    }
    Ok(ck)
}

/// The encoders `evaluate` and `link` run: built for `vocab`, then
/// overwritten with the checkpoint's parameters (as
/// `ServeModel::from_checkpoint` does for `serve`).
fn encoders(
    ck: &Checkpoint,
    vocab: &Vocab,
    cfg: &MetaBlinkConfig,
) -> Result<(BiEncoder, CrossEncoder), String> {
    let params = |key: &str| {
        ck.params.get(key).cloned().ok_or_else(|| format!("checkpoint has no {key:?} parameters"))
    };
    // The init RNG is irrelevant: every tensor is overwritten.
    let mut bi = BiEncoder::new(vocab, cfg.bi, &mut Rng::seed_from_u64(0));
    bi.set_params(params(BI_KEY)?).map_err(|e| e.to_string())?;
    let mut cross = CrossEncoder::new(vocab, cfg.cross, &mut Rng::seed_from_u64(0));
    cross.set_params(params(CROSS_KEY)?).map_err(|e| e.to_string())?;
    Ok((bi, cross))
}

/// The configuration a model of manifest scale `scale` is trained
/// with — and so the one `evaluate`, `link` and `serve` load it and
/// link with, or one model directory would answer each differently.
fn scale_config(scale: &str) -> MetaBlinkConfig {
    if scale == "bench" {
        MetaBlinkConfig::default()
    } else {
        MetaBlinkConfig::fast_test()
    }
}

/// Rebuild the context and models from a checkpoint directory, with the
/// linker configuration its scale trained with.
fn load_model(
    dir: &Path,
) -> Result<(ExperimentContext, String, BiEncoder, CrossEncoder, LinkerConfig), String> {
    let manifest = Manifest::load(dir)?;
    let ck = load_checkpoint(dir)?;
    let ctx = context(manifest.seed, &manifest.scale)?;
    let cfg = scale_config(&manifest.scale);
    let (bi, cross) = encoders(&ck, &ctx.vocab, &cfg)?;
    Ok((ctx, manifest.domain, bi, cross, cfg.linker))
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = PathBuf::from(flag(opts, "model", "metablink_model"));
    let limit: usize = flag(opts, "limit", "0").parse().map_err(|e| format!("--limit: {e}"))?;
    let threads = threads_flag(opts)?;
    let (ctx, domain, bi, cross, cfg) = load_model(&dir)?;
    let world = ctx.dataset.world();
    let dom = world.domain_checked(&domain).map_err(|e| e.to_string())?;
    let linker = TwoStageLinker::new(
        &bi,
        &cross,
        &ctx.vocab,
        world.kb(),
        world.kb().domain_entities(dom.id),
        LinkerConfig { threads, ..cfg },
    );
    let test = &ctx.dataset.split(&domain).test;
    let test = if limit > 0 && limit < test.len() { &test[..limit] } else { test };
    let m = linker.evaluate_parallel(test, threads).map_err(|e| e.to_string())?;
    println!(
        "{domain}: {} mentions  R@{} {:.2}%  N.Acc {:.2}%  U.Acc {:.2}%",
        m.count, cfg.k, m.recall_at_k, m.normalized_acc, m.unnormalized_acc
    );
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = PathBuf::from(flag(opts, "model", "metablink_model"));
    let defaults = ServerConfig::default();
    let num = |key: &str, default: usize| -> Result<usize, String> {
        flag(opts, key, &default.to_string()).parse().map_err(|e| format!("--{key}: {e}"))
    };
    let snum = |key: &str, default: u64| -> Result<u64, String> {
        flag(opts, key, &default.to_string()).parse().map_err(|e| format!("--{key}: {e}"))
    };
    let serve_defaults = defaults.serve;
    let cfg = ServerConfig {
        addr: flag(opts, "addr", "127.0.0.1:7878").to_string(),
        max_batch: num("max-batch", defaults.max_batch)?,
        queue_capacity: num("queue-capacity", defaults.queue_capacity)?,
        cache_capacity: num("cache-capacity", defaults.cache_capacity)?,
        workers: num("workers", defaults.workers)?,
        serve: ServeConfig {
            read_timeout_ms: snum("read-timeout-ms", serve_defaults.read_timeout_ms)?,
            reply_timeout_ms: snum("reply-timeout-ms", serve_defaults.reply_timeout_ms)?,
            default_deadline_ms: snum("default-deadline-ms", serve_defaults.default_deadline_ms)?,
            max_deadline_ms: snum("max-deadline-ms", serve_defaults.max_deadline_ms)?,
            retry_after_s: snum("retry-after-s", serve_defaults.retry_after_s)?,
            admission_limit: snum("admission-limit", serve_defaults.admission_limit)?,
            watch_interval_ms: snum("watch-interval-ms", serve_defaults.watch_interval_ms)?,
        },
        ..defaults
    };

    let manifest = Manifest::load(&dir)?;
    let ctx = context(manifest.seed, &manifest.scale)?;
    let mut train_cfg = scale_config(&manifest.scale);
    // Intra-batch parallelism for the linker the server wraps; the
    // server's own `--workers` knob controls batch-level concurrency.
    train_cfg.linker.threads = threads_flag(opts)?;
    let ck = load_checkpoint(&dir)?;
    let world = ctx.dataset.world();
    let dom = world.domain_checked(&manifest.domain).map_err(|e| e.to_string())?;
    eprintln!(
        "precomputing entity index ({} entities) …",
        world.kb().domain_entities(dom.id).len()
    );
    let vocab = ctx.vocab.clone();
    let kb = world.kb().clone();
    let dictionary = world.kb().domain_entities(dom.id).to_vec();
    let domain_name = manifest.domain.clone();
    // The model served at start-up and every hot-reloaded candidate are
    // built the same way, against the same world context, and share its
    // one KB (a `KnowledgeBase` clone is a refcount bump).
    let build = move |ck: &Checkpoint| {
        ServeModel::from_checkpoint(
            ck,
            vocab.clone(),
            kb.clone(),
            dictionary.clone(),
            domain_name.clone(),
            train_cfg.bi,
            train_cfg.cross,
            train_cfg.linker,
        )
    };
    let model = build(&ck).map_err(|e| e.to_string())?;
    // A reload candidate is verified by the checkpoint loader (framing,
    // per-section CRCs) before a swap is attempted.
    let source = dir.join(MODEL_FILE);
    let loader: ModelLoader =
        Box::new(move |path: &Path| build(&Checkpoint::load(&mut DiskStorage::new(), path)?));
    let registry = ModelRegistry::with_loader(model, source, loader).map_err(|e| e.to_string())?;
    let server = Server::start_with_registry(registry, cfg).map_err(|e| e.to_string())?;
    let addr = server.addr();
    if let Some(path) = opts.get("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|e| e.to_string())?;
    }
    println!(
        "serving {} on http://{addr} (POST /link; POST /admin/shutdown to stop)",
        manifest.domain
    );
    server.join();
    println!("drained; bye");
    Ok(())
}

fn cmd_link(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = PathBuf::from(flag(opts, "model", "metablink_model"));
    let surface = flag(opts, "surface", "").to_string();
    if surface.is_empty() {
        return Err("--surface is required".into());
    }
    let left = flag(opts, "left", "").to_string();
    let right = flag(opts, "right", "").to_string();
    let k: usize = flag(opts, "k", "5").parse().map_err(|e| format!("--k: {e}"))?;

    let (ctx, domain, bi, cross, cfg) = load_model(&dir)?;
    let world = ctx.dataset.world();
    let dom = world.domain_checked(&domain).map_err(|e| e.to_string())?;
    let linker = TwoStageLinker::new(
        &bi,
        &cross,
        &ctx.vocab,
        world.kb(),
        world.kb().domain_entities(dom.id),
        cfg,
    );
    let mention = LinkedMention {
        left,
        surface,
        right,
        entity: mb_kb::EntityId(0), // unknown; only used for gold marking
        category: OverlapCategory::LowOverlap,
    };
    let result = linker.link(&mention).map_err(|e| e.to_string())?;
    let mut ranked: Vec<(mb_kb::EntityId, f64)> =
        result.retrieved.iter().map(|&(id, _)| id).zip(result.rerank_scores).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top candidates in {domain}:");
    for (rank, (id, score)) in ranked.into_iter().take(k).enumerate() {
        let e = world.kb().entity(id);
        let mut desc = e.description.clone();
        desc.truncate(60);
        println!("  {:>2}. {:<30} {score:>8.3}  {desc}…", rank + 1, e.title);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metablink::datagen::{World, WorldConfig};
    use metablink::encoders::input::build_vocab;
    use metablink::tensor::Params;

    /// An `mb-params v1` document as `train` used to write one — by a
    /// writer of the test's own, since the workspace has none left.
    fn v1_document(params: &Params) -> String {
        let mut doc = String::from("mb-params v1\n");
        for (name, tensor) in params.iter() {
            let dims: Vec<String> = tensor.shape().iter().map(ToString::to_string).collect();
            let values: Vec<String> = tensor.data().iter().map(|v| format!("{v:e}")).collect();
            doc +=
                &format!("param {name} {} {}\n{}\n", dims.len(), dims.join(" "), values.join(" "));
        }
        doc
    }

    fn write_legacy_pair(dir: &Path, bi: &BiEncoder, cross: &CrossEncoder) {
        std::fs::create_dir_all(dir).unwrap();
        for ((_, file), params) in LEGACY_FILES.iter().zip([bi.params(), cross.params()]) {
            std::fs::write(dir.join(file), v1_document(params)).unwrap();
        }
    }

    #[test]
    fn every_model_directory_layout_loads_the_same_parameters() {
        let world = World::generate(WorldConfig::tiny(5));
        let vocab = build_vocab(world.kb(), [], 1);
        let cfg = MetaBlinkConfig::fast_test();
        let bi = BiEncoder::new(&vocab, cfg.bi, &mut Rng::seed_from_u64(1));
        let cross = CrossEncoder::new(&vocab, cfg.cross, &mut Rng::seed_from_u64(2));
        let other_bi = BiEncoder::new(&vocab, cfg.bi, &mut Rng::seed_from_u64(3));
        let other_cross = CrossEncoder::new(&vocab, cfg.cross, &mut Rng::seed_from_u64(4));
        assert_ne!(bi.params(), other_bi.params());

        let root = std::env::temp_dir().join(format!("metablink-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // (a) what `train` writes; (b) a directory from before model.mbc;
        // (c) both, disagreeing: model.mbc wins.
        let (current, legacy, both) = (root.join("a"), root.join("b"), root.join("c"));
        std::fs::create_dir_all(&current).unwrap();
        save_checkpoint(&current, &bi, &cross).unwrap();
        write_legacy_pair(&legacy, &bi, &cross);
        write_legacy_pair(&both, &other_bi, &other_cross);
        save_checkpoint(&both, &bi, &cross).unwrap();

        for dir in [&current, &legacy, &both] {
            let ck = load_checkpoint(dir).unwrap();
            // `evaluate` / `link` …
            let (eval_bi, eval_cross) = encoders(&ck, &vocab, &cfg).unwrap();
            // … and `serve` build the same encoders from it.
            let served = ServeModel::from_checkpoint(
                &ck,
                vocab.clone(),
                world.kb().clone(),
                Vec::new(),
                "TargetX".to_string(),
                cfg.bi,
                cfg.cross,
                cfg.linker,
            )
            .unwrap();
            for (got_bi, got_cross) in [(&eval_bi, &eval_cross), (&served.bi, &served.cross)] {
                assert_eq!(got_bi.params(), bi.params(), "{}", dir.display());
                assert_eq!(got_cross.params(), cross.params(), "{}", dir.display());
            }
        }
        assert!(load_checkpoint(&root.join("missing")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
