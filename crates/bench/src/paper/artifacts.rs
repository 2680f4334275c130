//! The artifact table: every figure and table of the evaluation with
//! the claims the paper makes over it (ids cited by DESIGN.md §5 and
//! EXPERIMENTS.md), then the functions that produce them. Margins are
//! in the units of the table: accuracy or ROUGE points, selection ratio.

use super::{Artifact, Claim, Numbers, Out, Run, DOMAINS, SEEDS};
use crate::bench_model_config;
use mb_common::Rng;
use mb_core::baselines::name_matching_accuracy;
use mb_core::linker::{LinkMetrics, TwoStageLinker};
use mb_core::pipeline::{DataSource, MetaBlinkConfig, Method};
use mb_core::reweight::{train_meta, MetaConfig, MetaModel, MetaStats};
use mb_datagen::mentions::generate_mentions;
use mb_datagen::noise::inject_bad_pairs;
use mb_datagen::world::ZESHEL_DOMAINS;
use mb_datagen::LinkedMention;
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::input::TrainPair;
use mb_eval::{CategoryBreakdown, ExperimentContext, Table};
use mb_nlg::SynPair;
use mb_tensor::optim::Adam;
use mb_text::rouge::paired_rouge1_f1;
use DataSource::{
    ExactMatch, General, GeneralSeed, GeneralSynSeed, GeneralSynStarSeed, Seed, Syn, SynSeed,
    SynStar, SynStarSeed,
};
use Method::{Blink, Dl4el, MetaBlink};

/// The evaluation, in the paper's order.
pub static ARTIFACTS: [Artifact; 14] = [
    Artifact {
        id: "fig1",
        run: fig1,
        claims: &[Claim::new("F1.monotone", 0.0)
            .says("performance degrades as the in-domain training set shrinks")
            .over("{d}|10 < {d}|25 < {d}|50 < {d}|100 < {d}|200 < {d}|400 < {d}|800")],
    },
    Artifact { id: "table2", run: table2, claims: &[] },
    Artifact { id: "table3", run: table3, claims: &[] },
    Artifact { id: "table4", run: table4, claims: &[] },
    Artifact {
        id: "table5",
        run: |r| fewshot(r, "V", ["Forgotten Realms", "Lego"]),
        claims: &[
            Claim { id: "T5.source_chain", ..SOURCE_CHAIN },
            Claim { id: "T5.seed_lt_syn", not_reproduced: Some(-3.50), ..SEED_LT_SYN },
            Claim { id: "T5.dl4el_le_blink", full_only: true, ..DL4EL_LE_BLINK },
            Claim { id: "T5.meta_ge_blink", ..META_GE_BLINK },
            Claim { id: "T5.synstar_ge_syn", not_reproduced: Some(-1.51), ..SYNSTAR_GE_SYN },
        ],
    },
    Artifact {
        id: "table6",
        run: |r| fewshot(r, "VI", ["Star Trek", "YuGiOh"]),
        claims: &[
            Claim { id: "T6.source_chain", full_only: true, ..SOURCE_CHAIN },
            Claim { id: "T6.seed_lt_syn", ..SEED_LT_SYN },
            Claim { id: "T6.dl4el_le_blink", full_only: true, ..DL4EL_LE_BLINK },
            Claim {
                id: "T6.meta_ge_blink",
                not_reproduced: Some(-0.85),
                full_only: true,
                ..META_GE_BLINK
            },
            Claim { id: "T6.synstar_ge_syn", not_reproduced: Some(-0.63), ..SYNSTAR_GE_SYN },
        ],
    },
    Artifact {
        id: "table7",
        run: table7,
        claims: &[
            Claim::new("T7.general_lt_mined", 1.0)
                .says("a heuristically mined seed improves general-domain BLINK on every domain")
                .over("{d}|General < {d}|General+Seed(mined)"),
            Claim::new("T7.mined_lt_meta", 3.0)
                .says("MetaBLINK on General+Syn+Seed beats BLINK on General+Seed on every domain")
                .over("{d}|General+Seed(mined) < {d}|General+Syn+Seed(mined)"),
            Claim::new("T7.gain_in_large_gap", 0.0)
                .says("MetaBLINK's zero-shot gains concentrate in the large-gap domains")
                .over("Forgotten Realms|gain, Star Trek|gain < Lego|gain, YuGiOh|gain")
                .not_reproduced(-1.88),
        ],
    },
    Artifact {
        id: "table8",
        run: table8,
        claims: &[
            Claim::new("T8.lexicon_order", 0.0)
                .says("gaps follow the generator's lexicon gap: Star Trek closest, Lego farthest")
                .over("Star Trek|GAP < Forgotten Realms|GAP, YuGiOh|GAP < Lego|GAP")
                .full_only(),
            Claim::new("T8.large_gap_pair", 0.0)
                .says("GAP(Lego), GAP(YuGiOh) exceed GAP(Forgotten Realms), GAP(Star Trek)")
                .over("Forgotten Realms|GAP, Star Trek|GAP < Lego|GAP, YuGiOh|GAP"),
        ],
    },
    Artifact {
        id: "table9",
        run: table9,
        claims: &[
            Claim::new("T9.all_sources_best", 0.0)
                .says("jointly using general + synthetic + seed data is best on average")
                .over(concat!(
                    "Avg|BLINK/General, Avg|BLINK/General+Seed, Avg|MetaBLINK/Syn+Seed, ",
                    "Avg|MetaBLINK/General+Seed ",
                    "< Avg|MetaBLINK/General+Syn+Seed, Avg|MetaBLINK/General+Syn*+Seed"
                )),
            Claim::new("T9.synstar_ge_syn", 0.0)
                .says("syn* (adapted rewriter) is at least as good as syn in the full mix")
                .over("Avg|MetaBLINK/General+Syn+Seed < Avg|MetaBLINK/General+Syn*+Seed")
                .full_only(),
        ],
    },
    Artifact {
        id: "table10",
        run: table10,
        claims: &[
            Claim::new("T10.syn_nacc_gt_exact", 5.0)
                .says("Syn beats Exact Match on N.Acc everywhere: rewriting breaks the shortcut")
                .over("{d}|Exact Match|N.Acc < {d}|Syn|N.Acc"),
            Claim::new("T10.syn_recall_gt_exact", 0.0)
                .says("Syn beats Exact Match on R@64 in every domain")
                .over("{d}|Exact Match|R@64 < {d}|Syn|R@64")
                .not_reproduced(-4.02),
        ],
    },
    Artifact {
        id: "table11",
        run: table11,
        claims: &[
            Claim::new("T11.syn_gt_exact", 1.0)
                .says("rewritten mentions are closer to the golden mentions than exact matches")
                .over("{d}|Exact Match < {d}|Syn"),
            Claim::new("T11.synstar_ge_syn", 0.0)
                .says("target adaptation (syn*) moves them at least as close as syn")
                .over("{d}|Syn < {d}|Syn*"),
        ],
    },
    Artifact {
        id: "fig4",
        run: |r| {
            let (stats, is_bad) = fig4_stats(r.ctx, |model| model);
            fig4_out(&stats, &is_bad)
        },
        // The paper has ≈ 0.5 vs ≈ 0.2; today's 0.425 vs 0.313 is pinned as a floor.
        claims: &[Claim::new("F4.bad_below_normal", 0.1)
            .says("meta-learning selects normal data more often than injected bad data")
            .over("bad < normal")],
    },
    Artifact { id: "ablations", run: ablations, claims: &[] },
    Artifact {
        id: "breakdown",
        run: breakdown,
        claims: &[
            Claim::new("CB.exact_collapses", 50.0)
                .says("exact-match training is a surface matcher: Low Overlap collapses")
                .over("Low Overlap|BLINK/Exact Match < High Overlap|BLINK/Exact Match"),
            Claim::new("CB.synseed_recovers", 20.0)
                .says("synthetic + seed training recovers Low Overlap, the majority category")
                .over("Low Overlap|BLINK/Exact Match < Low Overlap|MetaBLINK/Syn+Seed")
                .full_only(),
        ],
    },
];

// Tables V and VI make the same claims, each on its own two domains.
const SOURCE_CHAIN: Claim = Claim::new("", 2.0)
    .says("Name Matching is weakest; combining Syn+Seed beats training on either source alone")
    .over(concat!(
        "{d}|Name Matching|U.Acc < {d}|BLINK/Seed|U.Acc, {d}|BLINK/Syn|U.Acc ",
        "< {d}|BLINK/Syn+Seed|U.Acc"
    ));
const SEED_LT_SYN: Claim = Claim::new("", 0.0)
    .says("BLINK on Syn beats BLINK on the Seed alone")
    .over("{d}|BLINK/Seed|U.Acc < {d}|BLINK/Syn|U.Acc");
const DL4EL_LE_BLINK: Claim = Claim::new("", 0.0)
    .says("DL4EL's denoising brings no gain over BLINK on Syn+Seed")
    .over("{d}|DL4EL/Syn+Seed|U.Acc < {d}|BLINK/Syn+Seed|U.Acc");
const META_GE_BLINK: Claim = Claim::new("", 0.0)
    .says("MetaBLINK is at least as good as BLINK on the same Syn+Seed data")
    .over("{d}|BLINK/Syn+Seed|U.Acc < {d}|MetaBLINK/Syn+Seed|U.Acc");
const SYNSTAR_GE_SYN: Claim = Claim::new("", 0.0)
    .says("MetaBLINK on Syn*+Seed is at least as good as on Syn+Seed")
    .over("{d}|MetaBLINK/Syn+Seed|U.Acc < {d}|MetaBLINK/Syn*+Seed|U.Acc");

/// A report table with one column group per domain that records every
/// cell's series in [`Numbers`] under `{domain}|{row}|{column}` (just
/// `{domain}|{row}` when there is one column).
struct Sheet {
    table: Table,
    nums: Numbers,
    domains: Vec<&'static str>,
    columns: Vec<&'static str>,
}

impl Sheet {
    fn new(
        title: &str,
        lead: &[&str],
        domains: &[&'static str],
        columns: &[&'static str],
    ) -> Sheet {
        let mut headers: Vec<String> = lead.iter().map(|h| h.to_string()).collect();
        for d in domains {
            headers.extend(columns.iter().map(|c| format!("{d} {c}")));
        }
        let table = Table::new(title, &headers.iter().map(String::as_str).collect::<Vec<_>>());
        Sheet {
            table,
            nums: Numbers::default(),
            domains: domains.to_vec(),
            columns: columns.to_vec(),
        }
    }

    /// Append a row: the `lead` cells, then for each domain one cell per
    /// column from `series(domain)`; an empty series prints `-`.
    fn row<F>(&mut self, lead: &[&str], row: &str, mut series: F)
    where
        F: FnMut(&'static str) -> Vec<Vec<f64>>,
    {
        let mut cells: Vec<String> = lead.iter().map(|c| c.to_string()).collect();
        for &d in &self.domains {
            for (column, values) in self.columns.iter().zip(series(d)) {
                let key = match self.columns.len() {
                    1 => format!("{d}|{row}"),
                    _ => format!("{d}|{row}|{column}"),
                };
                cells.push(match values.is_empty() {
                    true => "-".to_string(),
                    false => self.nums.put(key, &values),
                });
            }
        }
        self.table.row(&cells);
    }

    fn done(self) -> Out {
        Out { tables: vec![self.table], nums: self.nums }
    }
}

const R_N_U: [&str; 3] = ["R@64", "N.Acc", "U.Acc"];

/// Per-seed results as one series per [`R_N_U`] column from `first` on
/// (a sheet with fewer columns takes the leading ones).
fn metrics(ms: &[LinkMetrics], first: usize) -> Vec<Vec<f64>> {
    let fields: [fn(&LinkMetrics) -> f64; 3] =
        [|m| m.recall_at_k, |m| m.normalized_acc, |m| m.unnormalized_acc];
    fields[first..].iter().map(|f| ms.iter().map(f).collect()).collect()
}

fn row_label(method: Method, source: DataSource) -> String {
    format!("{}/{}", method.label(), source.label())
}

/// `count` fresh gold mentions of a domain from their own stream,
/// disjoint from the benchmark's by construction.
fn fresh_mentions(
    ctx: &ExperimentContext,
    d: &str,
    count: usize,
    stream: u64,
) -> Vec<LinkedMention> {
    let dom = ctx.dataset.world().domain(d);
    let mut rng = Rng::seed_from_u64(stream ^ dom.id.0 as u64);
    generate_mentions(ctx.dataset.world(), dom, count, &mut rng).mentions
}

/// Figure 1: BLINK on nested prefixes of one in-domain pool per domain.
fn fig1(run: &mut Run<'_>) -> Out {
    let title = "Figure 1 — U.Acc vs in-domain training-set size (BLINK, Seed only)";
    let domains = ["Lego", "Star Trek"];
    let mut s = Sheet::new(title, &["#in-domain samples"], &domains, &["U.Acc"]);
    let pools = domains.map(|d| (d, fresh_mentions(run.ctx, d, 800, 0xF16)));
    let cfg = run.config(SEEDS[0]);
    for n in [10usize, 25, 50, 100, 200, 400, 800] {
        s.row(&[&n.to_string()], &n.to_string(), |d| {
            let pool = &pools.iter().find(|p| p.0 == d).expect("a pool per domain").1;
            metrics(&[run.eval_with(d, &pool[..n], (Blink, Seed), &cfg)], 2)
        });
    }
    s.done()
}

/// Table II: test mentions the exact-match-trained model gets wrong by
/// surface similarity and the syn-trained model gets right.
fn table2(run: &mut Run<'_>) -> Out {
    let (test, kb) = (run.test("YuGiOh"), run.ctx.dataset.world().kb());
    let [exact, syn] = run.linkers([("YuGiOh", Blink, ExactMatch), ("YuGiOh", Blink, Syn)]);
    let mut t = Table::new(
        "Table II — errors of the Exact-Match-trained model, fixed by Syn training (YuGiOh)",
        &["Mention (in context)", "Gold entity", "Exact-Match model", "Syn model"],
    );
    for m in test {
        if t.len() >= 6 {
            break;
        }
        // An inference error counts as no prediction.
        let predicted = |linker: &TwoStageLinker<'_>| linker.link(m).ok().and_then(|r| r.predicted);
        let Some(wrong) = predicted(&exact).filter(|&e| e != m.entity) else { continue };
        if predicted(&syn) == Some(m.entity) {
            let gold = kb.entity(m.entity).title.clone();
            let (mut text, wrong) = (m.text(), format!("{} (wrong)", kb.entity(wrong).title));
            text.truncate(70);
            t.row(&[format!("…{}… [{}]", text, m.surface), gold.clone(), wrong, gold]);
        }
    }
    t.note("each row: the exact-match-trained model picks a surface-similar wrong entity; the syn-trained model uses the context keywords");
    Out { tables: vec![t], nums: Numbers::default() }
}

/// Table III: generated vs paper entity counts, and the overlap-category
/// mix of the test domains' gold mentions.
fn table3(run: &mut Run<'_>) -> Out {
    let world = run.ctx.dataset.world();
    let mut t = Table::new(
        "Table III — Zeshel-like dataset (generated vs paper entity counts)",
        &["Split", "Domain", "Entities (generated)", "Entities (paper)"],
    );
    for &(name, role, paper) in ZESHEL_DOMAINS {
        let generated = world.kb().domain_entities(world.domain(name).id).len();
        t.row(&[format!("{role:?}"), name.into(), generated.to_string(), paper.to_string()]);
    }
    t.note("generated counts are paper counts ÷40 (train/dev) and ÷10 (test); see DESIGN.md");
    let mut c = Table::new(
        "Table III (b) — mention overlap categories per test domain (%)",
        &["Domain", "High Overlap", "Multiple Categories", "Ambiguous Substring", "Low Overlap"],
    );
    for d in DOMAINS {
        let counts = run.ctx.dataset.mentions(d).category_counts();
        let total = counts.iter().sum::<usize>().max(1) as f64;
        let shares = counts.iter().map(|&n| format!("{:.1}", 100.0 * n as f64 / total));
        c.row(&[vec![d.to_string()], shares.collect()].concat());
    }
    c.note("Low Overlap is the majority type, as in the paper — the reason Name Matching fails");
    Out { tables: vec![t, c], nums: Numbers::default() }
}

/// Table IV: few-shot split sizes per test domain (50/50/rest).
fn table4(run: &mut Run<'_>) -> Out {
    let mut t = Table::new(
        "Table IV — few-shot entity linking dataset",
        &["Domain", "#Train (seed)", "#Dev", "#Test", "#Test (paper/4)"],
    );
    for (d, paper) in DOMAINS.iter().zip([1_100usize, 1_099, 4_127, 3_274]) {
        let s = run.ctx.dataset.split(d);
        let sizes = [s.seed.len(), s.dev.len(), s.test.len(), paper / 4];
        t.row(&[vec![d.to_string()], sizes.iter().map(usize::to_string).collect()].concat());
    }
    t.note("seed/dev sizes are the paper's 50/50; test counts scaled ÷4");
    Out { tables: vec![t], nums: Numbers::default() }
}

/// Tables V / VI: every method × data row on the few-shot split.
fn fewshot(run: &mut Run<'_>, number: &str, domains: [&'static str; 2]) -> Out {
    let title = format!("Table {number} — U.Acc on {} and {} (few-shot)", domains[0], domains[1]);
    let mut s = Sheet::new(&title, &["Method", "Data"], &domains, &R_N_U);
    let world = run.ctx.dataset.world();
    s.row(&["Name Matching", "-"], "Name Matching", |d| {
        let acc = name_matching_accuracy(world.kb(), world.domain(d).id, run.test(d));
        vec![vec![], vec![], vec![acc]]
    });
    for (method, source) in [
        (Blink, Seed),
        (Blink, Syn),
        (Blink, SynSeed),
        (Dl4el, SynSeed),
        (MetaBlink, SynSeed),
        (MetaBlink, SynStarSeed),
    ] {
        let row = row_label(method, source);
        let lead = [method.label(), source.label()];
        s.row(&lead, &row, |d| metrics(&run.row(false, d, (method, source)), 0));
    }
    s.done()
}

/// Table VII: zero-shot transfer, the seed mined heuristically. Paper
/// "BLINK / -" = General; "BLINK / Seed" = General + mined seed;
/// "MetaBLINK / Syn+Seed" = General + syn + mined seed (the zero-shot
/// setting has the general-domain data by definition).
fn table7(run: &mut Run<'_>) -> Out {
    let title = "Table VII — U.Acc on four domains, zero-shot transfer (mined seed)";
    let mut s = Sheet::new(title, &["Method", "Data"], &DOMAINS, &["U.Acc"]);
    for (method, source, label) in [
        (Blink, General, "General"),
        (Blink, GeneralSeed, "General+Seed(mined)"),
        (MetaBlink, GeneralSynSeed, "General+Syn+Seed(mined)"),
    ] {
        s.row(&[method.label(), label], label, |d| metrics(&run.row(true, d, (method, source)), 2));
    }
    for d in DOMAINS {
        let series = |label: &str| s.nums.series(&format!("{d}|{label}")).to_vec();
        let (meta, general) = (series("General+Syn+Seed(mined)"), series("General"));
        let gain: Vec<f64> = meta.iter().zip(&general).map(|(m, g)| m - g).collect();
        s.nums.put(format!("{d}|gain"), &gain);
    }
    s.done()
}

/// Table VIII: the U.Acc a general-domain BLINK gains from fine-tuning
/// on 500 fresh in-domain mentions.
fn table8(run: &mut Run<'_>) -> Out {
    let title = "Table VIII — gap between general domain and test domains";
    let order = ["Forgotten Realms", "Star Trek", "Lego", "YuGiOh"];
    let mut s = Sheet::new(title, &["Method"], &order, &["U.Acc"]);
    s.row(&["BLINK (general)"], "base", |d| metrics(&run.row(true, d, (Blink, General)), 2));
    s.row(&["BLINK+FT (500 in-domain)"], "ft", |d| {
        let ft_mentions = fresh_mentions(run.ctx, d, 500, 0xF7);
        let tuned = |&seed| run.eval_with(d, &ft_mentions, (Blink, GeneralSeed), &run.config(seed));
        metrics(&SEEDS.iter().map(tuned).collect::<Vec<_>>(), 2)
    });
    let nums = s.nums.clone();
    s.row(&["GAP"], "GAP", |d| {
        let of = |row: &str| nums.series(&format!("{d}|{row}"));
        vec![of("ft").iter().zip(of("base")).map(|(ft, base)| ft - base).collect()]
    });
    s.done()
}

/// Table IX: zero-shot transfer on the two large-gap domains with
/// different training sources; `Avg` is the per-seed mean of the two.
fn table9(run: &mut Run<'_>) -> Out {
    let title = "Table IX — U.Acc on Lego and YuGiOh with different training sources (zero-shot, mined seed)";
    let mut s = Sheet::new(title, &["Method", "Data"], &["Lego", "YuGiOh", "Avg"], &["U.Acc"]);
    for (method, source) in [
        (Blink, General),
        (Blink, GeneralSeed),
        (MetaBlink, SynSeed),
        (MetaBlink, GeneralSeed),
        (MetaBlink, GeneralSynSeed),
        (MetaBlink, GeneralSynStarSeed),
    ] {
        let mut acc = |d| metrics(&run.row(true, d, (method, source)), 2).remove(0);
        s.row(&[method.label(), source.label()], &row_label(method, source), |d| match d {
            "Avg" => {
                vec![acc("Lego").iter().zip(acc("YuGiOh")).map(|(l, y)| (l + y) / 2.0).collect()]
            }
            d => vec![acc(d)],
        });
    }
    s.done()
}

/// Table X: BLINK trained on Exact Match vs Syn vs Syn* data only.
fn table10(run: &mut Run<'_>) -> Out {
    let title = "Table X — effectiveness of mention rewriting";
    let domains = ["Lego", "YuGiOh", "Forgotten Realms", "Star Trek"];
    let mut s = Sheet::new(title, &["Training data"], &domains, &R_N_U[..2]);
    for source in [ExactMatch, Syn, SynStar] {
        let label = source.label();
        s.row(&[label], label, |d| metrics(&run.row(false, d, (Blink, source)), 0));
    }
    s.done()
}

/// Table XI: ROUGE-1 F1 (×100) of each synthetic source's mentions
/// against the gold mentions of the same entity.
fn table11(run: &mut Run<'_>) -> Out {
    let title = "Table XI — ROUGE-1 F1 of synthetic mentions vs golden mentions (×100)";
    let mut s = Sheet::new(title, &["Data"], &DOMAINS, &["F1"]);
    let rouge = |syn: &[SynPair], d: &str| {
        let gold = &run.ctx.dataset.mentions(d).mentions;
        let mut pairs = Vec::new();
        for p in syn {
            let same_entity = gold.iter().filter(|g| g.entity == p.mention.entity);
            pairs.extend(same_entity.map(|g| (p.mention.surface.as_str(), g.surface.as_str())));
        }
        vec![vec![100.0 * paired_rouge1_f1(&pairs)]]
    };
    s.row(&["Exact Match"], "Exact Match", |d| rouge(&run.ctx.syn_of(d).exact, d));
    s.row(&["Syn"], "Syn", |d| rouge(&run.ctx.syn_of(d).rewritten, d));
    s.row(&["Syn*"], "Syn*", |d| rouge(&run.ctx.syn_star_of(d).rewritten, d));
    s.done()
}

/// Figure 4, the measurement: inject 50% bad pairs (mentions relinked
/// to random entities) into YuGiOh's syn data, meta-train a bi-encoder
/// (through `wrap`, so a test can substitute a broken [`MetaModel`]) on
/// the tagged mixture against the unseen seed, and return the selection
/// statistics with each pair's `is_bad` tag.
pub fn fig4_stats<M: MetaModel<Example = TrainPair>>(
    ctx: &ExperimentContext,
    wrap: impl FnOnce(BiEncoder) -> M,
) -> (MetaStats, Vec<bool>) {
    let (world, domain) = (ctx.dataset.world(), "YuGiOh");
    let mentions: Vec<_> = ctx.syn_of(domain).rewritten.iter().map(|p| p.mention.clone()).collect();
    let pool = world.kb().domain_entities(world.domain(domain).id);
    let mut rng = Rng::seed_from_u64(0xF4);
    let tagged = inject_bad_pairs(&mentions, pool, mentions.len() / 2, &mut rng);

    // One bi-encoder's meta-training is seconds at the full budget, so
    // `--check` measures it there too.
    let icfg = bench_model_config(SEEDS[0]);
    let featurize =
        |m: &LinkedMention| TrainPair::from_mention(&ctx.vocab, &icfg.linker.input, world.kb(), m);
    let pairs: Vec<TrainPair> = tagged.iter().map(|t| featurize(&t.mention)).collect();
    let seed_pairs: Vec<TrainPair> = ctx.dataset.split(domain).seed.iter().map(featurize).collect();

    let mut model = wrap(BiEncoder::new(&ctx.vocab, icfg.bi, &mut Rng::seed_from_u64(1)));
    let cfg = MetaConfig {
        steps: 800,
        syn_batch: 16,
        seed_batch: 50,
        lr: 2e-3,
        seed: 3,
        select_threshold_factor: 1.0,
        seed_mix: 0.1,
        ..MetaConfig::default()
    };
    let stats = train_meta(&mut model, &pairs, &seed_pairs, &mut Adam::new(cfg.lr), &cfg, None)
        .expect("no checkpoint manager, nothing to fail");
    (stats, tagged.iter().map(|t| t.is_bad).collect())
}

/// Figure 4, the table: mean selection ratio of normal vs bad pairs.
pub fn fig4_out(stats: &MetaStats, is_bad: &[bool]) -> Out {
    let mut nums = Numbers::default();
    let mut t = Table::new(
        "Figure 4 — meta-learning selection ratio of normal vs injected bad data (bi-encoder, YuGiOh)",
        &["Data source", "#pairs", "Mean selection ratio"],
    );
    for (key, label, bad) in
        [("normal", "normal (syn)", false), ("bad", "bad (random entity)", true)]
    {
        let idx: Vec<usize> = (0..is_bad.len()).filter(|&i| is_bad[i] == bad).collect();
        let ratio = stats.mean_selection_ratio(idx.iter().copied());
        nums.put(key.to_string(), &[ratio]);
        t.row(&[label.to_string(), idx.len().to_string(), format!("{ratio:.3}")]);
    }
    t.note(&format!(
        "selection = above-uniform weight; the direction reproduces, the magnitude is attenuated on this substrate — see EXPERIMENTS.md. zero-weight (delta-guard) steps: {}",
        stats.zero_weight_steps
    ));
    Out { tables: vec![t], nums }
}

/// The design choices DESIGN.md §6 calls out, on Lego at the first
/// seed: Eq. 6 as printed (gold excluded from the denominator) vs
/// standard in-batch cross-entropy; BLINK warm start vs from scratch and
/// seed anchoring λ vs verbatim Algorithm 1 (λ = 0); the seed size.
fn ablations(run: &mut Run<'_>) -> Out {
    fn anchor(cfg: &mut MetaBlinkConfig, warm_start: bool, lambda: f64) {
        cfg.warm_start = warm_start;
        cfg.bi_meta.seed_mix = lambda;
        cfg.cross_meta.seed_mix = lambda;
    }
    // No tweak on the full seed is the default configuration: the row
    // Table V trains.
    type Variant = (&'static str, Method, usize, Option<fn(&mut MetaBlinkConfig)>);
    let variants: [Variant; 10] = [
        ("loss: Eq. 6, gold excluded (default)", Blink, 50, None),
        ("loss: standard in-batch CE", Blink, 50, Some(|c| c.bi.exclude_gold_in_loss = false)),
        ("meta: warm start + λ=0.3 (default; seed size 50)", MetaBlink, 50, None),
        (
            "meta: warm start + λ=0 (Alg. 1 as refinement)",
            MetaBlink,
            50,
            Some(|c| anchor(c, true, 0.0)),
        ),
        ("meta: from scratch + λ=0.3", MetaBlink, 50, Some(|c| anchor(c, false, 0.3))),
        (
            "meta: from scratch + λ=0 (verbatim Alg. 1)",
            MetaBlink,
            50,
            Some(|c| anchor(c, false, 0.0)),
        ),
        ("seed size 10", MetaBlink, 10, None),
        ("seed size 20", MetaBlink, 20, None),
        ("seed size 30", MetaBlink, 30, None),
        ("seed size 40", MetaBlink, 40, None),
    ];
    let title = "Ablations — loss form (BLINK), warm start / seed anchoring / seed size (MetaBLINK); Syn+Seed";
    let mut s = Sheet::new(title, &["Variant"], &["Lego"], &R_N_U);
    let seed_set = &run.ctx.dataset.split("Lego").seed;
    for (label, method, seed_size, tweak) in variants {
        let m = if tweak.is_none() && seed_size == seed_set.len() {
            run.metrics((false, "Lego", method, SynSeed, SEEDS[0]))
        } else {
            let mut cfg = run.config(SEEDS[0]);
            if let Some(tweak) = tweak {
                tweak(&mut cfg);
            }
            run.eval_with("Lego", &seed_set[..seed_size], (method, SynSeed), &cfg)
        };
        s.row(&[label], label, |_| metrics(&[m], 0));
    }
    s.table.note("the two loss forms differ by a constant shift of the softmax support; the paper selects the seed size among {10..100}, 50 is its default");
    s.done()
}

/// U.Acc stratified by mention–title overlap category: a surface-shortcut
/// model (BLINK on Exact Match data) against MetaBLINK.
fn breakdown(run: &mut Run<'_>) -> Out {
    let test = run.test("Lego");
    let rows = [("Lego", Blink, ExactMatch), ("Lego", MetaBlink, SynSeed)];
    let linkers = run.linkers(rows);
    let mut out = Out::default();
    for ((linker, (_, method, source)), title) in linkers.iter().zip(rows).zip([
        "Per-category U.Acc — BLINK trained on Exact Match only (Lego)",
        "Per-category U.Acc — MetaBLINK Syn+Seed (Lego)",
    ]) {
        let b = CategoryBreakdown::evaluate(linker, test);
        for (cat, m) in &b.per_category {
            let key = format!("{}|{}", cat.label(), row_label(method, source));
            out.nums.put(key, &[m.unnormalized_acc]);
        }
        let mut t = b.to_table(title);
        t.note(&format!("shortcut spread (max−min category U.Acc): {:.2}", b.shortcut_spread()));
        out.tables.push(t);
    }
    out
}
