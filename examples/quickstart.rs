//! Quickstart: generate a small benchmark world, run the full MetaBLINK
//! pipeline on a few-shot target domain, and link some mentions.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use metablink::core::baselines::name_matching_accuracy;
use metablink::core::pipeline::{train, DataSource, MetaBlinkConfig, Method};
use metablink::core::{LinkerConfig, TwoStageLinker};
use metablink::eval::{ContextConfig, ExperimentContext};

fn main() -> metablink::common::Result<()> {
    // 1. Build a (seeded, synthetic) Zeshel-like benchmark: 16 domains,
    //    a knowledge base, gold mentions, few-shot splits, and the
    //    synthetic supervision (exact matching + mention rewriting).
    println!("building benchmark world + synthetic supervision …");
    let ctx = ExperimentContext::build(ContextConfig::small(7));
    let domain = "Lego";
    let task = ctx.task(domain);
    let split = ctx.dataset.split(domain);
    println!(
        "target domain {:?}: {} entities, {} seed mentions, {} test mentions, {} synthetic pairs",
        domain,
        ctx.dataset.world().kb().domain_entities(task.domain.id).len(),
        split.seed.len(),
        split.test.len(),
        task.syn.rewritten.len(),
    );

    // 2. The trivial baseline: link by exact title match.
    let nm = name_matching_accuracy(ctx.dataset.world().kb(), task.domain.id, &split.test);
    println!("\nName Matching baseline     U.Acc = {nm:.2}%");

    // 3. Train MetaBLINK: synthetic data reweighted by the 50-sample
    //    seed via the meta-learning mechanism (Algorithm 1 + 2).
    println!("training MetaBLINK (Syn+Seed) …");
    let cfg = MetaBlinkConfig::fast_test();
    let model = train(&task, Method::MetaBlink, DataSource::SynSeed, &cfg);
    let metrics = model.evaluate(&task, &split.test);
    println!(
        "MetaBLINK (Syn+Seed)       R@{} = {:.2}%, N.Acc = {:.2}%, U.Acc = {:.2}%",
        cfg.linker.k, metrics.recall_at_k, metrics.normalized_acc, metrics.unnormalized_acc
    );

    // 4. Link a few individual mentions.
    let world = ctx.dataset.world();
    let linker = TwoStageLinker::try_new(
        &model.bi,
        &model.cross,
        &ctx.vocab,
        world.kb(),
        world.kb().domain_entities(task.domain.id),
        LinkerConfig { k: 16, ..model.linker_cfg },
    )?;
    println!("\nsample predictions:");
    for m in split.test.iter().take(5) {
        let predicted = linker
            .link(m)?
            .predicted
            .ok_or_else(|| metablink::common::Error::NotFound("empty candidate set".to_string()))?;
        let gold = &world.kb().entity(m.entity).title;
        let got = &world.kb().entity(predicted).title;
        let mark = if predicted == m.entity { "✓" } else { "✗" };
        let mut text = m.text();
        text.truncate(60);
        println!("  {mark} \"…{text}…\"  → {got}  (gold: {gold})");
    }
    Ok(())
}
