//! The paper's evaluation as one table-driven runner.
//!
//! [`ARTIFACTS`] is the whole evaluation: one row per figure/table,
//! each a function from the shared [`Run`] to report tables plus the
//! [`Numbers`] behind them, and the [`Claim`]s the paper makes over
//! those numbers. [`main`] builds the context once, runs the selected
//! rows in table order, prints each claim under its table as a
//! `paper shape` note with the verdict, and emits a `claims` report.
//! The claim table is the only place that says what counts as
//! reproduced: a claim entered `holds` that fails, or one entered
//! `not-reproduced` that starts holding, fails the run.
//!
//! `paper --check` runs the same table on the same context with the
//! shortened training budget of [`MetaBlinkConfig::fast_test`], prints
//! only the tally, and skips the claims marked `full-only`.

mod artifacts;

pub use artifacts::{fig4_out, fig4_stats, ARTIFACTS};

use crate::bench_model_config;
use crate::harness::emit_table;
use mb_common::util::mean;
use mb_core::linker::LinkMetrics;
use mb_core::pipeline::{train, DataSource, MetaBlinkConfig, Method, TrainedLinker};
use mb_core::seed::{mine_zero_shot_seed, SeedFilterConfig};
use mb_core::TwoStageLinker;
use mb_datagen::LinkedMention;
use mb_eval::{Aggregate, ContextConfig, ExperimentContext, Table};
use std::process::ExitCode;

/// The model seeds every aggregated cell averages over.
pub const SEEDS: [u64; 3] = [42, 43, 44];

/// The four test domains, in benchmark order.
pub const DOMAINS: [&str; 4] = ["Forgotten Realms", "Lego", "Star Trek", "YuGiOh"];

/// The context every artifact shares, at both scales: the benchmark
/// world of DESIGN.md §5 builds in under a second, and the smaller
/// [`ContextConfig::small`] cannot carry the rewriter claims (Table XI
/// fails on it), so `--check` shortens the training budget instead.
pub fn context() -> ExperimentContext {
    ExperimentContext::build(ContextConfig::bench_default(42))
}

/// The numbers behind an artifact's tables: series of per-seed (or
/// single) values under `domain|row[|metric]` keys, which claims address.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Numbers(pub Vec<(String, Vec<f64>)>);

impl Numbers {
    /// Record a series and return its table cell (`mean` or `mean±std`).
    pub fn put(&mut self, key: String, values: &[f64]) -> String {
        self.0.push((key, values.to_vec()));
        Aggregate::of(values).fmt()
    }

    /// The series recorded under `key`.
    ///
    /// # Panics
    /// Panics if nothing was — a typo in the claim table.
    pub fn series(&self, key: &str) -> &[f64] {
        let found = self.0.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("no series {key:?} in {:?}", self.0)).1
    }
}

/// What one artifact produced: report tables (emitted as `<id>`,
/// `<id>_2`, …) and the numbers its claims are judged on.
#[derive(Default)]
pub struct Out {
    pub tables: Vec<Table>,
    pub nums: Numbers,
}

/// One directional claim of the paper, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Stable id, cited by DESIGN.md §5 and EXPERIMENTS.md.
    pub id: &'static str,
    /// The paper's sentence.
    pub paper: &'static str,
    /// The statistic: ascending tiers of [`Numbers`] keys, `a, b < c`.
    /// Every series mean of a tier must exceed every mean of the tier
    /// before it; `{d}` stands for each test domain reported, in turn.
    pub tiers: &'static str,
    /// The claim holds iff the smallest gap between consecutive tiers
    /// is at least this (in the table's units).
    pub margin: f64,
    /// `None`: HEAD meets the claim at full scale. `Some(gap)`: it does
    /// not, with the gap measured when the claim was entered — never
    /// weakened until it passes, never dropped.
    pub not_reproduced: Option<f64>,
    /// The shortened budget cannot resolve it; `--check` skips it.
    pub full_only: bool,
}

impl Claim {
    const fn new(id: &'static str, margin: f64) -> Claim {
        Claim { id, paper: "", tiers: "", margin, not_reproduced: None, full_only: false }
    }

    const fn says(self, paper: &'static str) -> Claim {
        Claim { paper, ..self }
    }

    const fn over(self, tiers: &'static str) -> Claim {
        Claim { tiers, ..self }
    }

    const fn not_reproduced(self, measured: f64) -> Claim {
        Claim { not_reproduced: Some(measured), ..self }
    }

    const fn full_only(self) -> Claim {
        Claim { full_only: true, ..self }
    }

    /// The smallest `min(tier i+1) − max(tier i)` over domains and
    /// consecutive tiers, and the most seeds behind any mean it used
    /// (a baseline without a model has one value). Pure in `n`.
    pub fn smallest_gap(&self, n: &Numbers) -> (f64, usize) {
        let reported = |d: &&str| n.0.iter().any(|(k, _)| k.starts_with(d));
        let domains: Vec<&str> = match self.tiers.contains("{d}") {
            true => DOMAINS.into_iter().filter(reported).collect(),
            false => vec![""],
        };
        let (mut gap, mut seeds) = (f64::INFINITY, 0);
        for d in domains {
            let mut tier_means = |tier: &str| -> Vec<f64> {
                let series = tier.split(", ").map(|k| n.series(&k.replace("{d}", d)));
                series.inspect(|s| seeds = seeds.max(s.len())).map(mean).collect()
            };
            let tiers: Vec<Vec<f64>> = self.tiers.split(" < ").map(&mut tier_means).collect();
            for pair in tiers.windows(2) {
                let lo = pair[0].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let hi = pair[1].iter().copied().fold(f64::INFINITY, f64::min);
                gap = gap.min(hi - lo);
            }
        }
        (gap, seeds)
    }
}

/// A claim judged on one run's numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub claim: &'static Claim,
    /// [`Claim::smallest_gap`] on this run.
    pub measured: f64,
    pub seeds: usize,
}

impl Verdict {
    /// The run disagrees with the claim table — in either direction.
    pub fn flipped(&self) -> bool {
        (self.measured >= self.claim.margin) != self.claim.not_reproduced.is_none()
    }

    fn status(&self) -> String {
        match (self.claim.not_reproduced, self.flipped()) {
            (None, false) => "holds".into(),
            (None, true) => "FLIPPED: entered holds, fails".into(),
            (Some(gap), false) => format!("not-reproduced (entered at {gap:+.2})"),
            (Some(_), true) => "FLIPPED: entered not-reproduced, holds".into(),
        }
    }

    fn line(&self) -> String {
        let Verdict { claim, measured, seeds } = self;
        let (id, margin) = (claim.id, claim.margin);
        format!(
            "{id}: {}; gap {measured:+.3} vs margin {margin} over {seeds} seed(s)",
            self.status()
        )
    }
}

/// One figure or table of the evaluation.
pub struct Artifact {
    /// CLI id; README and DESIGN.md §5 say what each shows.
    pub id: &'static str,
    /// Produce the tables and the numbers behind them.
    pub run: fn(&mut Run<'_>) -> Out,
    /// The paper's claims over those numbers.
    pub claims: &'static [Claim],
}

/// A default-configuration training run: zero-shot (mined seed) or
/// few-shot task, domain, method, source, model seed.
pub(crate) type RowKey = (bool, &'static str, Method, DataSource, u64);

/// Few-shot rows whose first-seed model a later artifact reads (Table
/// II and the category breakdown); kept when trained.
const KEPT_MODELS: [(&str, Method, DataSource); 4] = [
    ("YuGiOh", Method::Blink, DataSource::ExactMatch),
    ("YuGiOh", Method::Blink, DataSource::Syn),
    ("Lego", Method::Blink, DataSource::ExactMatch),
    ("Lego", Method::MetaBlink, DataSource::SynSeed),
];

/// One invocation's shared state: the context, the mined zero-shot
/// seeds, and every default-configuration row trained so far — so each
/// (task, method, source, seed) is trained at most once.
pub struct Run<'c> {
    pub ctx: &'c ExperimentContext,
    /// `--check`: the shortened training budget.
    pub check: bool,
    mined: Vec<Vec<LinkedMention>>,
    rows: Vec<(RowKey, LinkMetrics)>,
    models: Vec<(RowKey, TrainedLinker)>,
}

impl<'c> Run<'c> {
    pub fn new(ctx: &'c ExperimentContext, check: bool) -> Self {
        let world = ctx.dataset.world();
        // Zero-shot seeds: synthetic data filtered by rule + self-match
        // (Section VI-C), mined once per domain.
        let mine = |d: &str| {
            let dict = world.kb().domain_entities(world.domain(d).id);
            let syn = &ctx.syn_of(d).rewritten;
            mine_zero_shot_seed(world.kb(), &ctx.vocab, dict, syn, &SeedFilterConfig::default(), 50)
        };
        Run { ctx, check, mined: DOMAINS.map(mine).into(), rows: Vec::new(), models: Vec::new() }
    }

    /// The model configuration of this scale for one seed.
    pub fn config(&self, seed: u64) -> MetaBlinkConfig {
        if !self.check {
            return bench_model_config(seed);
        }
        let mut cfg = MetaBlinkConfig::fast_test();
        cfg.seed = seed;
        cfg.bi_train.seed = seed ^ 1;
        cfg.cross_train.seed = seed ^ 2;
        cfg.bi_meta.seed = seed ^ 3;
        cfg.cross_meta.seed = seed ^ 4;
        cfg
    }

    /// A domain's held-out test mentions.
    pub fn test(&self, domain: &str) -> &'c [LinkedMention] {
        &self.ctx.dataset.split(domain).test
    }

    /// Train on `domain` with a custom seed set and configuration and
    /// evaluate on its test split. Not shared: the caller's variant.
    pub(crate) fn eval_with(
        &self,
        domain: &str,
        seed_set: &[LinkedMention],
        (method, source): (Method, DataSource),
        cfg: &MetaBlinkConfig,
    ) -> LinkMetrics {
        let task = self.ctx.task_with_seed(domain, seed_set);
        train(&task, method, source, cfg).evaluate(&task, self.test(domain))
    }

    /// Test metrics of one default-configuration row, trained on first use.
    pub fn metrics(&mut self, key: RowKey) -> LinkMetrics {
        if let Some((_, m)) = self.rows.iter().find(|(k, _)| *k == key) {
            return *m;
        }
        let (zero, domain, method, source, seed) = key;
        let task = match DOMAINS.iter().position(|d| zero && *d == domain) {
            Some(i) => self.ctx.task_with_seed(domain, &self.mined[i]),
            None => self.ctx.task(domain),
        };
        let model = train(&task, method, source, &self.config(seed));
        let m = model.evaluate(&task, self.test(domain));
        self.rows.push((key, m));
        if !zero && seed == SEEDS[0] && KEPT_MODELS.contains(&(domain, method, source)) {
            self.models.push((key, model));
        }
        m
    }

    /// Per-seed test metrics of one row over [`SEEDS`].
    pub fn row(
        &mut self,
        zero: bool,
        d: &'static str,
        row: (Method, DataSource),
    ) -> Vec<LinkMetrics> {
        SEEDS.iter().map(|&seed| self.metrics((zero, d, row.0, row.1, seed))).collect()
    }

    /// The first-seed few-shot models of `KEPT_MODELS` rows, each as a
    /// linker over its domain's dictionary.
    pub fn linkers<const N: usize>(
        &mut self,
        rows: [(&'static str, Method, DataSource); N],
    ) -> [TwoStageLinker<'_>; N] {
        let keys = rows.map(|(d, m, s)| (false, d, m, s, SEEDS[0]));
        for key in keys {
            self.metrics(key);
        }
        let (models, ctx, kb) = (&self.models, self.ctx, self.ctx.dataset.world().kb());
        keys.map(|key| {
            let model = &models.iter().find(|(k, _)| *k == key).expect("in KEPT_MODELS").1;
            let dict = kb.domain_entities(ctx.dataset.world().domain(key.1).id);
            TwoStageLinker::new(&model.bi, &model.cross, &ctx.vocab, kb, dict, model.linker_cfg)
        })
    }
}

/// Run one artifact and judge its claims; each verdict is also a
/// `paper shape` note on the artifact's first table.
pub fn evaluate(a: &'static Artifact, run: &mut Run<'_>) -> (Out, Vec<Verdict>) {
    let mut out = (a.run)(run);
    let mut verdicts = Vec::new();
    for claim in a.claims.iter().filter(|c| !(run.check && c.full_only)) {
        let (measured, seeds) = claim.smallest_gap(&out.nums);
        let v = Verdict { claim, measured, seeds };
        if let Some(t) = out.tables.first_mut() {
            t.note(&format!("paper shape: {} [{}]", claim.paper, v.line()));
        }
        verdicts.push(v);
    }
    (out, verdicts)
}

/// `N holds / M not-reproduced / K full-only — F flipped` over the
/// judged claims plus the `skipped` full-only ones `--check` left out.
fn tally(verdicts: &[Verdict], skipped: usize) -> String {
    let count = |f: fn(&Verdict) -> bool| verdicts.iter().filter(|v| f(v)).count();
    format!(
        "claims: {} holds / {} not-reproduced / {} full-only{} — {} flipped",
        count(|v| v.claim.not_reproduced.is_none()),
        count(|v| v.claim.not_reproduced.is_some()),
        skipped + count(|v| v.claim.full_only),
        if skipped > 0 { " (not judged at this budget)" } else { "" },
        count(Verdict::flipped)
    )
}

/// The `claims` report: every judged claim with its verdict (measured
/// gap, margin, seed count), statistic and sentence.
fn claims_table(verdicts: &[Verdict]) -> Table {
    let title = "Claims — the paper's directional claims, judged on this run";
    let mut t = Table::new(title, &["Verdict", "Scale", "Statistic", "Paper"]);
    for v in verdicts {
        let scale = if v.claim.full_only { "full-only" } else { "check+full" };
        t.row(&[&v.line(), scale, v.claim.tiers, v.claim.paper].map(str::to_string));
    }
    t.note(&tally(verdicts, 0));
    t
}

/// `paper [--check] [artifact …]`: exit 0 when every judged claim
/// agrees with the claim table, 1 when one flipped, 2 on a bad argument.
pub fn main(args: &[String]) -> ExitCode {
    let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
    let (mut check, mut picked) = (false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            id if ids.contains(&id) => picked.push(id),
            bad => {
                let what = if bad.starts_with('-') { "flag" } else { "artifact" };
                eprintln!("error: unknown {what} {bad:?}");
                eprintln!("usage: paper [--check] [artifact …]; artifacts: {}", ids.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    let ctx = context();
    let mut run = Run::new(&ctx, check);
    let (mut verdicts, mut skipped) = (Vec::new(), 0);
    for a in ARTIFACTS.iter().filter(|a| picked.is_empty() || picked.contains(&a.id)) {
        let started = std::time::Instant::now();
        let (out, judged) = evaluate(a, &mut run);
        skipped += a.claims.len() - judged.len();
        verdicts.extend(judged);
        if !check {
            emit_table(&out.tables[0], a.id);
            for (i, table) in out.tables.iter().enumerate().skip(1) {
                emit_table(table, &format!("{}_{}", a.id, i + 1));
            }
            eprintln!("  done: {} ({:.0?})", a.id, started.elapsed());
        }
    }
    if !check {
        emit_table(&claims_table(&verdicts), "claims");
    }
    verdicts.iter().filter(|v| v.flipped()).for_each(|v| println!("{}", v.line()));
    println!("{}", tally(&verdicts, skipped));
    ExitCode::from(verdicts.iter().any(Verdict::flipped) as u8)
}
