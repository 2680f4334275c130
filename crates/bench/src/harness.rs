//! Criterion-free timing harness.
//!
//! A benchmark warms up, estimates the per-iteration cost, then takes a
//! fixed number of timed samples (each a batch of iterations so that
//! sub-microsecond workloads are measurable). Summary statistics —
//! median, p95, mean, standard deviation — are printed as a paper-style
//! table and persisted as machine-readable JSON under
//! `target/experiments/`, next to the `.txt` tables the experiment
//! harnesses write.

use mb_eval::{output_dir, Table};
use std::time::{Duration, Instant};

/// Timing-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Wall-clock budget for the warmup/estimation phase.
    pub warmup: Duration,
    /// Number of timed samples to take.
    pub samples: usize,
    /// Minimum wall-clock time per sample; iterations are batched to
    /// reach it, so `Instant` overhead stays negligible.
    pub min_sample_time: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(200),
            samples: 30,
            min_sample_time: Duration::from_millis(5),
        }
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/case` by convention).
    pub name: String,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time.
    pub p95_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Population standard deviation across samples.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Optional throughput denominator: units processed per iteration
    /// with a label, e.g. `(1024.0, "B")` for a 1 KiB input.
    pub units: Option<(f64, &'static str)>,
}

impl Measurement {
    /// Units processed per second at the median, if units were declared.
    pub(crate) fn throughput(&self) -> Option<f64> {
        self.units.map(|(n, _)| n * 1e9 / self.median_ns)
    }
}

/// Render nanoseconds with an adaptive unit.
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// A collection of benchmarks that reports as one table + one JSON file.
#[derive(Debug, Default)]
pub struct Harness {
    cfg: BenchConfig,
    results: Vec<Measurement>,
}

impl Harness {
    /// A harness with the default [`BenchConfig`].
    pub fn new() -> Self {
        Harness { cfg: BenchConfig::default(), results: Vec::new() }
    }

    /// A harness with an explicit configuration.
    pub fn with_config(cfg: BenchConfig) -> Self {
        Harness { cfg, results: Vec::new() }
    }

    /// Time `f`, which processes `units` of `unit_label` per iteration
    /// (enables throughput reporting).
    pub fn bench_units<F: FnMut()>(
        &mut self,
        name: &str,
        units: f64,
        unit_label: &'static str,
        f: F,
    ) -> &Measurement {
        self.bench_impl(name, Some((units, unit_label)), f)
    }

    /// Time two workloads under one interleaved sampling schedule:
    /// every sample round times one batch of `a`, then one batch of
    /// `b`, so a machine-noise burst lands on both sides of the
    /// comparison instead of on whichever bench happened to be
    /// sampling. Use when the acceptance metric is the *ratio* of the
    /// two medians (the fused-vs-serial retrieval benches); each
    /// workload keeps its own per-iteration batching, and the two
    /// measurements are recorded exactly as two [`Harness::bench_units`]
    /// calls would record them.
    #[allow(clippy::too_many_arguments)]
    pub fn bench_pair_units<A: FnMut(), B: FnMut()>(
        &mut self,
        name_a: &str,
        units_a: f64,
        mut a: A,
        name_b: &str,
        units_b: f64,
        mut b: B,
        unit_label: &'static str,
    ) {
        let iters_a = self.estimate_iters(&mut a);
        let iters_b = self.estimate_iters(&mut b);
        let mut ns_a: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        let mut ns_b: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t = Instant::now();
            for _ in 0..iters_a {
                a();
            }
            ns_a.push(t.elapsed().as_nanos() as f64 / iters_a as f64);
            let t = Instant::now();
            for _ in 0..iters_b {
                b();
            }
            ns_b.push(t.elapsed().as_nanos() as f64 / iters_b as f64);
        }
        self.record(name_a, Some((units_a, unit_label)), iters_a, ns_a);
        self.record(name_b, Some((units_b, unit_label)), iters_b, ns_b);
    }

    /// Warmup: run until the budget elapses, then derive how many
    /// iterations one timed sample needs to reach `min_sample_time`.
    fn estimate_iters<F: FnMut()>(&self, f: &mut F) -> u64 {
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.cfg.warmup || warmup_iters == 0 {
            f();
            warmup_iters += 1;
        }
        let est_ns = (warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(1.0);
        ((self.cfg.min_sample_time.as_nanos() as f64 / est_ns).ceil() as u64).max(1)
    }

    fn bench_impl<F: FnMut()>(
        &mut self,
        name: &str,
        units: Option<(f64, &'static str)>,
        mut f: F,
    ) -> &Measurement {
        let iters_per_sample = self.estimate_iters(&mut f);
        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            sample_ns.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        self.record(name, units, iters_per_sample, sample_ns)
    }

    /// Summarize one bench's raw samples and append the measurement;
    /// public for a bench that times its own spans (the parts of one
    /// step, in place) instead of a closure.
    pub fn record(
        &mut self,
        name: &str,
        units: Option<(f64, &'static str)>,
        iters_per_sample: u64,
        mut sample_ns: Vec<f64>,
    ) -> &Measurement {
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let n = sample_ns.len();
        let mean = sample_ns.iter().sum::<f64>() / n as f64;
        let var = sample_ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sample_ns[n / 2]
        } else {
            (sample_ns[n / 2 - 1] + sample_ns[n / 2]) / 2.0
        };
        let p95 = sample_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
        let m = Measurement {
            name: name.to_string(),
            iters_per_sample,
            samples: n,
            median_ns: median,
            p95_ns: p95,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            min_ns: sample_ns[0],
            max_ns: sample_ns[n - 1],
            units,
        };
        eprintln!(
            "  {:<40} median {:>10}  p95 {:>10}",
            m.name,
            fmt_ns(m.median_ns),
            fmt_ns(m.p95_ns)
        );
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// [`Harness::report`] with an extra pre-rendered JSON value
    /// attached under a top-level `"summary"` key — for benches whose
    /// acceptance metric is a derived quantity (a speedup ratio, a
    /// memory shrink) rather than a single measurement.
    pub fn report_with_summary(&self, title: &str, name: &str, summary: &str) {
        self.emit_table_to(title, name);
        let mut json = self.to_json(name);
        json.pop(); // strip the closing '}' to splice the summary in
        json.push_str(&format!(",\"summary\":{summary}}}"));
        write_json(name, &json);
    }

    /// Print the summary table and write `<name>.txt` + `<name>.json`
    /// under `target/experiments/`.
    pub fn report(&self, title: &str, name: &str) {
        self.emit_table_to(title, name);
        write_json(name, &self.to_json(name));
    }

    fn emit_table_to(&self, title: &str, name: &str) {
        let mut t = Table::new(
            title,
            &["Benchmark", "Median", "p95", "Mean", "Stddev", "Iters/sample", "Throughput"],
        );
        for m in &self.results {
            let thr = match (m.throughput(), m.units) {
                (Some(rate), Some((_, label))) => format!("{}/s", fmt_quantity(rate, label)),
                _ => "-".to_string(),
            };
            t.row(&[
                m.name.clone(),
                fmt_ns(m.median_ns),
                fmt_ns(m.p95_ns),
                fmt_ns(m.mean_ns),
                fmt_ns(m.stddev_ns),
                m.iters_per_sample.to_string(),
                thr,
            ]);
        }
        t.note(&format!("{} samples per benchmark; times are per iteration", self.cfg.samples));
        t.emit(name);
    }

    fn to_json(&self, name: &str) -> String {
        let mut entries = Vec::with_capacity(self.results.len());
        for m in &self.results {
            let units = match m.units {
                Some((n, label)) => format!(
                    ",\"units_per_iter\":{},\"unit\":{},\"throughput_per_s\":{}",
                    json_f64(n),
                    json_string(label),
                    json_f64(m.throughput().unwrap_or(0.0)),
                ),
                None => String::new(),
            };
            entries.push(format!(
                "{{\"name\":{},\"iters_per_sample\":{},\"samples\":{},\
                 \"median_ns\":{},\"p95_ns\":{},\"mean_ns\":{},\"stddev_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{}{units}}}",
                json_string(&m.name),
                m.iters_per_sample,
                m.samples,
                json_f64(m.median_ns),
                json_f64(m.p95_ns),
                json_f64(m.mean_ns),
                json_f64(m.stddev_ns),
                json_f64(m.min_ns),
                json_f64(m.max_ns),
            ));
        }
        format!(
            "{{\"kind\":\"bench\",\"file\":{},\"results\":[{}]}}",
            json_string(name),
            entries.join(",")
        )
    }
}

/// Emit a paper table through [`Table::emit`] (stdout + `.txt`) and as
/// machine-readable `<name>.json` alongside it.
pub(crate) fn emit_table(t: &Table, name: &str) {
    t.emit(name);
    let headers = json_string_array(t.headers());
    let rows: Vec<String> = t.rows().iter().map(|r| json_string_array(r)).collect();
    let json = format!(
        "{{\"kind\":\"table\",\"file\":{},\"title\":{},\"headers\":{},\"rows\":[{}],\"notes\":{}}}",
        json_string(name),
        json_string(t.title()),
        headers,
        rows.join(","),
        json_string_array(t.notes()),
    );
    write_json(name, &json);
}

/// Write a JSON payload to `target/experiments/<name>.json`.
///
/// Like [`Table::emit`], IO failures warn on stderr instead of aborting.
pub fn write_json(name: &str, payload: &str) {
    let dir = output_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    // Write-temp + fsync + rename, so a crash mid-report never leaves a
    // torn half-JSON behind a previous good result.
    if let Err(e) = mb_common::storage::atomic_write(&path, payload.as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn fmt_quantity(x: f64, label: &str) -> String {
    if x >= 1e9 {
        format!("{:.2} G{label}", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M{label}", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} k{label}", x / 1e3)
    } else {
        format!("{x:.2} {label}")
    }
}

/// Escape a string for a JSON document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", cells.join(","))
}

/// Format a float as a JSON number (JSON has no NaN/Inf — clamp to 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_workload() {
        let mut h = Harness::with_config(BenchConfig {
            warmup: Duration::from_millis(5),
            samples: 7,
            min_sample_time: Duration::from_micros(200),
        });
        let mut acc = 0u64;
        let m = h
            .bench_impl("noop/add", None, || {
                acc = acc.wrapping_add(std::hint::black_box(1));
            })
            .clone();
        assert_eq!(m.samples, 7);
        assert!(m.iters_per_sample >= 1);
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.p95_ns >= m.median_ns);
    }

    #[test]
    fn paired_sampling_records_both_sides() {
        let mut h = Harness::with_config(BenchConfig {
            warmup: Duration::from_millis(2),
            samples: 5,
            min_sample_time: Duration::from_micros(100),
        });
        let (mut a, mut b) = (0u64, 0u64);
        h.bench_pair_units(
            "pair/a",
            1.0,
            || a = a.wrapping_add(std::hint::black_box(1)),
            "pair/b",
            2.0,
            || b = b.wrapping_add(std::hint::black_box(2)),
            "op",
        );
        let names: Vec<&str> = h.results().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["pair/a", "pair/b"]);
        for m in h.results() {
            assert_eq!(m.samples, 5);
            assert!(m.median_ns > 0.0);
            assert!(m.units.is_some());
        }
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("µs — fine"), "\"µs — fine\"");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    #[test]
    fn bench_json_has_expected_fields() {
        let mut h = Harness::with_config(BenchConfig {
            warmup: Duration::from_millis(1),
            samples: 3,
            min_sample_time: Duration::from_micros(50),
        });
        h.bench_units("t/x", 64.0, "elem", || {
            std::hint::black_box(2u64.pow(10));
        });
        let json = h.to_json("unit_test_bench");
        for needle in [
            "\"kind\":\"bench\"",
            "\"name\":\"t/x\"",
            "\"median_ns\":",
            "\"p95_ns\":",
            "\"stddev_ns\":",
            "\"throughput_per_s\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
