//! The learned extractive mention rewriter (T5 substitute).
//!
//! Training mirrors Eq. 1: source-domain (description → gold mention)
//! pairs supervise a logistic scorer over token-salience features.
//! Rewriting mirrors Eq. 2: given a target entity's description, the
//! scorer picks the most salient tokens and assembles a short mention.
//! The `syn → syn*` upgrade is [`Rewriter::adapt`]: re-estimating the
//! corpus statistics on unlabeled target-domain text, the behavioural
//! analogue of T5's unsupervised denoising fine-tune.

use crate::features::{candidates, label_for, NUM_FEATURES};
use mb_common::Rng;
use mb_tensor::optim::Adam;
use mb_tensor::{init, Params, Tape, Tensor};
use mb_text::tfidf::TfIdf;

/// Rewriter hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RewriterConfig {
    /// Training epochs for the logistic scorer.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Maximum tokens in a rewritten mention.
    pub max_len: usize,
    /// Probability of extending the mention by one more token
    /// (geometric length model, min 1).
    pub extend_p: f64,
    /// Probability of prefixing the mention with "the" (gold aliases in
    /// natural text are frequently determiner-led).
    pub the_p: f64,
    /// Candidates whose document frequency exceeds this fraction of the
    /// known corpus are excluded from rewrites: corpus-frequent
    /// connective jargon does not make a fluent mention. On the target
    /// domain this rule only has teeth once the statistics have been
    /// adapted on unlabeled target text (syn → syn*) — the behavioural
    /// analogue of T5's denoising fine-tune producing more fluent
    /// mentions with fewer errors.
    pub max_df_ratio: f64,
}

impl Default for RewriterConfig {
    fn default() -> Self {
        RewriterConfig {
            epochs: 30,
            lr: 0.1,
            max_len: 3,
            extend_p: 0.85,
            the_p: 0.8,
            max_df_ratio: 0.15,
        }
    }
}

/// A supervision example: an entity description and its gold mention.
#[derive(Debug, Clone)]
pub struct RewriteExample {
    /// The entity's description text.
    pub description: String,
    /// The entity's title (feature input).
    pub title: String,
    /// The gold mention surface.
    pub mention: String,
}

/// The trained rewriter.
#[derive(Debug, Clone)]
pub struct Rewriter {
    params: Params,
    stats: TfIdf,
    cfg: RewriterConfig,
}

impl Rewriter {
    /// Train the scorer on source-domain examples with corpus
    /// statistics `stats` (source-domain documents).
    pub fn train(
        examples: &[RewriteExample],
        stats: TfIdf,
        cfg: RewriterConfig,
        rng: &mut Rng,
    ) -> Self {
        // Build the (features, label) design matrix once.
        let mut rows: Vec<[f64; NUM_FEATURES]> = Vec::new();
        let mut labels: Vec<f64> = Vec::new();
        for ex in examples {
            for cand in candidates(&ex.description, &ex.title, &stats) {
                labels.push(label_for(&cand, &ex.mention));
                rows.push(cand.features);
            }
        }
        let mut params = Params::new();
        let w = params.add("w", init::xavier_uniform(NUM_FEATURES, 1, rng));
        let b = params.add("b", init::zeros_bias(1));
        if !rows.is_empty() {
            let n = rows.len();
            let flat: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
            let x = Tensor::from_vec(vec![n, NUM_FEATURES], flat);
            let mut opt = Adam::new(cfg.lr);
            for _ in 0..cfg.epochs {
                let mut tape = Tape::new();
                let vars = params.inject(&mut tape);
                let xv = tape.leaf(&x);
                let logits = tape.linear(xv, vars[w.index()], vars[b.index()]);
                let flat_logits = tape.reshape(logits, vec![n]);
                let losses = tape.bce_with_logits(flat_logits, labels.clone());
                let loss = tape.mean_all(losses);
                let grads = tape.backward(loss);
                let gv = params.collect_grads(&vars, grads);
                opt.step(&mut params, &gv);
            }
        }
        Rewriter { params, stats, cfg }
    }

    /// Swap in adapted corpus statistics (`syn` → `syn*`): merge the
    /// unlabeled target documents into the statistics.
    pub fn adapt<'a>(&self, target_docs: impl IntoIterator<Item = &'a str>) -> Rewriter {
        let mut stats = self.stats.clone();
        let target = TfIdf::fit(target_docs);
        stats.merge(&target);
        Rewriter { params: self.params.clone(), stats, cfg: self.cfg }
    }

    /// Score every candidate token of a description (higher = more
    /// likely to belong in the mention).
    pub fn token_scores(&self, description: &str, title: &str) -> Vec<(String, usize, f64)> {
        let w = self.params.get(self.params.id_of("w").expect("w")).clone();
        let b = self.params.get(self.params.id_of("b").expect("b")).item();
        candidates(description, title, &self.stats)
            .into_iter()
            .map(|c| {
                let z: f64 = c.features.iter().zip(w.data()).map(|(f, wi)| f * wi).sum::<f64>() + b;
                (c.token, c.first_position, z)
            })
            .collect()
    }

    /// Rewrite: summarise a description into a short mention (Eq. 2).
    ///
    /// Picks the top-scoring tokens, orders them by description
    /// position, and optionally prefixes "the". Returns `None` when the
    /// description has no scorable content.
    pub fn rewrite(&self, description: &str, title: &str, rng: &mut Rng) -> Option<String> {
        let mut scored = self.token_scores(description, title);
        if scored.is_empty() {
            return None;
        }
        // Fluency rule: drop corpus-frequent tokens when enough remain.
        if self.stats.num_docs() > 0 {
            let n = self.stats.num_docs() as f64;
            let fluent: Vec<(String, usize, f64)> = scored
                .iter()
                .filter(|(t, _, _)| self.stats.df(t) as f64 / n <= self.cfg.max_df_ratio)
                .cloned()
                .collect();
            if !fluent.is_empty() {
                scored = fluent;
            }
        }
        scored.sort_by(|a, b| b.2.total_cmp(&a.2));
        let len = rng.length(1, self.cfg.max_len, self.cfg.extend_p).min(scored.len());
        let mut picked: Vec<(String, usize)> =
            scored.into_iter().take(len).map(|(t, pos, _)| (t, pos)).collect();
        picked.sort_by_key(|(_, pos)| *pos);
        let body = picked.into_iter().map(|(t, _)| t).collect::<Vec<_>>().join(" ");
        Some(if rng.chance(self.cfg.the_p) { format!("the {body}") } else { body })
    }

    /// The corpus statistics currently in use.
    pub fn stats(&self) -> &TfIdf {
        &self.stats
    }

    /// The learned feature weights (diagnostics).
    pub fn weights(&self) -> Vec<f64> {
        self.params.get(self.params.id_of("w").expect("w")).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_set() -> (Vec<RewriteExample>, TfIdf) {
        // Gold mentions are the high-TFIDF repeated content words.
        let examples = vec![
            RewriteExample {
                description: "the dragon guards the crystal cavern where the dragon sleeps".into(),
                title: "Karvoth".into(),
                mention: "the dragon".into(),
            },
            RewriteExample {
                description: "a temple of shadows rises where the temple priests gather".into(),
                title: "Velm".into(),
                mention: "the temple".into(),
            },
            RewriteExample {
                description: "the phaser rifle hums as the phaser charge builds".into(),
                title: "Mark IX".into(),
                mention: "the phaser".into(),
            },
            RewriteExample {
                description: "every duel begins when the duel disk unfolds".into(),
                title: "Obelisk".into(),
                mention: "the duel".into(),
            },
        ];
        let stats = TfIdf::fit(examples.iter().map(|e| e.description.as_str()));
        (examples, stats)
    }

    #[test]
    fn learns_to_pick_salient_repeated_tokens() {
        let (examples, stats) = training_set();
        let mut rng = Rng::seed_from_u64(1);
        let rw = Rewriter::train(&examples, stats, RewriterConfig::default(), &mut rng);
        // On a held-out description of the same shape, the repeated
        // content word should outscore one-off fillers.
        let scores = rw.token_scores(
            "the starship cruised while the starship engines flared brightly",
            "Enterprise",
        );
        let starship = scores.iter().find(|(t, _, _)| t == "starship").unwrap().2;
        let flared = scores.iter().find(|(t, _, _)| t == "flared").unwrap().2;
        assert!(starship > flared, "starship {starship} <= flared {flared}");
    }

    #[test]
    fn rewrite_produces_short_in_description_mentions() {
        let (examples, stats) = training_set();
        let mut rng = Rng::seed_from_u64(2);
        let rw = Rewriter::train(&examples, stats, RewriterConfig::default(), &mut rng);
        let desc = "the warp core pulses while the warp field holds the nacelles";
        for _ in 0..20 {
            let m = rw.rewrite(desc, "Core Unit", &mut rng).unwrap();
            let toks = mb_text::tokenize(&m);
            assert!(!toks.is_empty() && toks.len() <= 4, "mention {m:?}");
            for t in toks {
                assert!(t == "the" || desc.contains(&t), "token {t:?} not from the description");
            }
        }
    }

    #[test]
    fn rewrite_empty_description_is_none() {
        let (examples, stats) = training_set();
        let mut rng = Rng::seed_from_u64(3);
        let rw = Rewriter::train(&examples, stats, RewriterConfig::default(), &mut rng);
        assert!(rw.rewrite("", "x", &mut rng).is_none());
        assert!(rw.rewrite("the of and", "x", &mut rng).is_none());
    }

    #[test]
    fn adaptation_changes_statistics_not_weights() {
        let (examples, stats) = training_set();
        let mut rng = Rng::seed_from_u64(4);
        let rw = Rewriter::train(&examples, stats, RewriterConfig::default(), &mut rng);
        let adapted = rw.adapt(["brand new target words appear here", "target words again"]);
        assert_eq!(rw.weights(), adapted.weights());
        assert!(adapted.stats().num_docs() > rw.stats().num_docs());
        // A target-frequent word gets a lower idf after adaptation.
        assert!(adapted.stats().idf("target") < rw.stats().idf("target"));
    }

    #[test]
    fn trains_on_empty_examples_without_panicking() {
        let mut rng = Rng::seed_from_u64(5);
        let rw = Rewriter::train(&[], TfIdf::new(), RewriterConfig::default(), &mut rng);
        // Untrained but still functional.
        let out = rw.rewrite("some random description words", "t", &mut rng);
        assert!(out.is_some());
    }
}
