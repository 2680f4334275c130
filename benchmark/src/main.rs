//! The repo's one benchmark: end-to-end and per-layer numbers for the
//! serving path (`serve_paced`, `serve_saturated`), the in-process
//! linker (`link_offline`) and domain onboarding (`onboard_domain`).
//! See `benchmark/README.md` for what each metric means and which
//! layer should move it.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Each workload prints one `workload metric value unit` line per
//! metric, writes `benchmark/results/<workload>.json`, and ends with
//! one JSON object on the last line of standard output.

mod client;
mod fixture;
mod layers;
mod link;
mod onboard;
mod oracle;
mod serve;
mod stats;
mod trace;

use fixture::LinkScale;
use mb_serve::json::{self, Json};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, printed by the untraced pass of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("recall_at_64", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced pass of every workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("text.mention_bag_us", "us"),
    ("encoders.embed_us", "us"),
    ("store.ivf_topk_us", "us"),
    ("encoders.flat_topk_us", "us"),
    ("encoders.flat_scan_gbps", "GB/s"),
    ("core.candidate_set_us", "us"),
    ("encoders.rerank_us", "us"),
    ("core.link_batch_us", "us"),
    ("core.link_residual_ratio", "ratio"),
    ("store.ivf_recall_at_64", "ratio"),
    ("store.build_s", "s"),
    ("store.open_s", "s"),
    ("store.quantized_index_s", "s"),
    ("store.ivf_build_s", "s"),
    ("serve.reload_s", "s"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.server_latency_mean_us", "us"),
    ("serve.shed_total", "count"),
    ("serve.rejected_total", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.blocked_slots", "count"),
    ("datagen.dataset_s", "s"),
    ("encoders.vocab_s", "s"),
    ("nlg.rewriter_train_s", "s"),
    ("nlg.exact_match_s", "s"),
    ("nlg.rewrite_s", "s"),
    ("nlg.adapt_s", "s"),
    ("nlg.exact_pairs", "count"),
    ("nlg.noise_rate", "ratio"),
    ("core.weaksup_s", "s"),
    ("encoders.bi_warmup_s", "s"),
    ("encoders.cross_warmup_s", "s"),
    ("core.bi_meta_step_ms", "ms"),
    ("core.cross_meta_step_ms", "ms"),
    ("encoders.bi_batch_loss_ms", "ms"),
    ("encoders.bi_batch_grad_ms", "ms"),
    ("encoders.cross_example_grad_ms", "ms"),
    ("core.meta_weights_us", "us"),
    ("core.meta_zero_weight_ratio", "ratio"),
    ("core.linker_build_s", "s"),
    ("core.trainset_build_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.train_s", "s"),
    ("core.train_residual_ratio", "ratio"),
    ("core.test_recall_at_64", "ratio"),
    ("core.test_u_acc", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePaced,
    ServeSaturated,
    LinkOffline,
    OnboardDomain,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServePaced,
        Workload::ServeSaturated,
        Workload::LinkOffline,
        Workload::OnboardDomain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaced => "serve_paced",
            Workload::ServeSaturated => "serve_saturated",
            Workload::LinkOffline => "link_offline",
            Workload::OnboardDomain => "onboard_domain",
        }
    }
}

/// The link fixture is built this many times (the much cheaper
/// onboarding dataset three times as often); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// The `--smoke` miniature: small fixtures, short regions.
    pub smoke: bool,
}

impl Run {
    pub fn link_scale(&self) -> LinkScale {
        if self.smoke {
            LinkScale::SMOKE
        } else {
            LinkScale::FULL
        }
    }

    /// Discarded warm-up before a measured region.
    pub fn warm_seconds(&self) -> f64 {
        if self.smoke {
            0.2
        } else {
            1.0
        }
    }

    /// Length of the traced pass's serve traffic.
    pub fn trace_pass_seconds(&self) -> f64 {
        self.seconds.min(2.0)
    }

    /// Mentions the link layers are measured over.
    pub fn layer_mentions(&self) -> usize {
        if self.smoke {
            256
        } else {
            1024
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one pass of one workload produced.
pub struct Outcome {
    /// Operations attempted in the measured region, and how many
    /// failed (non-2xx, oracle mismatch, quality below the floor).
    pub attempted: u64,
    pub failed: u64,
    /// FNV over the checked outputs; same seed, same checksum.
    pub checksum: u64,
    pub metrics: Vec<Metric>,
    /// Caveats for the reader (unresolved percentiles and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, checksum: u64) -> Outcome {
        Outcome { attempted, failed, checksum, metrics: Vec::new(), notes: Vec::new() }
    }
}

/// `benchmark/results/`, relative to the checkout root `run.sh` runs in.
pub fn results_dir() -> PathBuf {
    PathBuf::from("benchmark/results")
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one pass of `workload` and report it. Returns whether the pass
/// was correct and printed exactly the declared metrics.
fn pass(workload: Workload, run: &Run, traced: bool) -> Result<bool, String> {
    let outcome = if traced {
        let mut tr = Tracer::new();
        let mut outcome = Outcome::new(1, 0, 0);
        outcome.metrics = layers::link_layers(run, workload, &mut tr)?;
        outcome.metrics.extend(onboard::layers(run, &mut tr));
        let path = results_dir().join(format!("trace_{}.jsonl", workload.name()));
        tr.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome
    } else {
        match workload {
            Workload::ServePaced | Workload::ServeSaturated => link::serve(run, workload)?,
            Workload::LinkOffline => link::offline(run)?,
            Workload::OnboardDomain => onboard::run(run)?,
        }
    };

    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut complete = outcome.metrics.len() == declared.len();
    for &(name, unit) in declared {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => {}
            Some(m) => {
                eprintln!(
                    "{}: metric {name} = {} {} is not a finite {unit}",
                    workload.name(),
                    m.value,
                    m.unit
                );
                complete = false;
            }
            None => {
                eprintln!("{}: metric {name} was not measured", workload.name());
                complete = false;
            }
        }
    }
    let correct = complete && outcome.failed == 0;

    for m in &outcome.metrics {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    if !traced {
        println!("{} output_checksum {:016x} fnv", workload.name(), outcome.checksum);
    }
    for note in &outcome.notes {
        println!("# {}: {note}", workload.name());
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::escape(m.name),
                json::num(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    let notes: Vec<String> = outcome.notes.iter().map(|n| json::escape(n)).collect();
    let report = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{traced},\"output_checksum\":\"{:016x}\",\"notes\":[{}],\"result\":{line}}}\n",
        json::escape(workload.name()),
        run.seed,
        json::num(run.seconds),
        outcome.checksum,
        notes.join(","),
    );
    let file = if traced {
        format!("{}.trace.json", workload.name())
    } else {
        format!("{}.json", workload.name())
    };
    let path = results_dir().join(file);
    std::fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{line}");
    Ok(correct)
}

/// The metric and workload tables of `BENCHMARK.json` must be the ones
/// the passes print: the file and the program may not drift apart.
fn check_against_benchmark_json() -> Result<(), String> {
    let text = std::fs::read("BENCHMARK.json").map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // `(name, unit)` of every entry of the array `key` (workloads have
    // no unit).
    let listed = |key: &str| -> Result<Vec<(String, String)>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no {key:?} array"));
        };
        let field = |i: &Json, f: &str| i.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        Ok(items.iter().map(|i| (field(i, "name"), field(i, "unit"))).collect())
    };
    let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), "")).collect();
    for (key, ours) in
        [("end_to_end", END_TO_END), ("per_layer", PER_LAYER), ("workloads", workloads.as_slice())]
    {
        let theirs = listed(key)?;
        if !theirs.iter().map(|(n, u)| (n.as_str(), u.as_str())).eq(ours.iter().copied()) {
            return Err(format!(
                "BENCHMARK.json {key} {theirs:?} differ from the program's {ours:?}"
            ));
        }
    }
    Ok(())
}

const USAGE: &str =
    "usage: benchmark/run.sh [--workload serve_paced|serve_saturated|link_offline|onboard_domain] \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    run: Run,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        run: Run { seed: 1, seconds: 10.0, smoke: false },
        traced: false,
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::ALL.iter().find(|w| w.name() == name);
                args.workloads = vec![*w.ok_or(format!("unknown workload {name:?}\n{USAGE}"))?];
            }
            "--seed" => {
                args.run.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.run.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                let explicit = argv.next_if(|v| v == "0" || v == "1");
                args.traced = explicit.as_deref() != Some("0");
            }
            "--smoke" => args.run.smoke = true,
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if args.run.smoke && !seconds_given {
        args.run.seconds = 2.0;
    }
    if !(args.run.seconds > 0.0 && args.run.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", args.run.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(results_dir()) {
        eprintln!("create {}: {e}", results_dir().display());
        return ExitCode::FAILURE;
    }
    // `--smoke` exercises both passes of the chosen workloads and holds
    // the metric tables against BENCHMARK.json.
    let passes: &[bool] =
        if args.run.smoke { &[false, true] } else { std::slice::from_ref(&args.traced) };
    let mut ok = true;
    if args.run.smoke {
        if let Err(e) = check_against_benchmark_json() {
            eprintln!("smoke: {e}");
            ok = false;
        }
    }
    for &workload in &args.workloads {
        for &traced in passes {
            match pass(workload, &args.run, traced) {
                Ok(correct) => ok &= correct,
                Err(e) => {
                    eprintln!("{}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
