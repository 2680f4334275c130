//! Per-domain lexicons built from a syllable grammar.
//!
//! Each domain's content vocabulary mixes two pools:
//!
//! * a **general pool**, shared by every domain (seeded only by the
//!   world seed), standing in for ordinary English content words;
//! * a **domain pool**, seeded by the domain name, standing in for the
//!   domain's jargon (card names, starship classes, brick types, …).
//!
//! The probability of drawing from the domain pool is the domain's
//! `gap` parameter. A large gap means most content words are unseen
//! outside the domain — exactly the property Table VIII measures via
//! the fine-tuning improvement, and the reason MetaBLINK helps most on
//! Lego/YuGiOh.
//!
//! For the 16 named Zeshel domains a small list of themed stems is
//! blended into the domain pool so that generated samples are readable
//! in the qualitative tables (Table II).

use mb_common::Rng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "kr", "l", "m", "n", "p", "pr",
    "qu", "r", "s", "sh", "sk", "st", "t", "th", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ae", "ia", "ou", "ei"];
const CODAS: &[&str] = &["", "", "", "l", "n", "r", "s", "st", "th", "x", "k", "m", "nd", "rk"];

/// Generate one pronounceable pseudo-word of 2–3 syllables.
// clippy's explicit_auto_deref suggestion breaks type inference here
// (T would be inferred as `str` before deref coercion applies).
#[allow(clippy::explicit_auto_deref)]
pub(crate) fn pseudo_word(rng: &mut Rng) -> String {
    let syllables = rng.range(2, 4);
    let mut w = String::new();
    for _ in 0..syllables {
        w.push_str(*rng.choose(ONSETS));
        w.push_str(*rng.choose(VOWELS));
        if rng.chance(0.4) {
            w.push_str(*rng.choose(CODAS));
        }
    }
    w
}

/// Themed stems for the named Zeshel domains (empty for unknown names).
pub(crate) fn themed_stems(domain: &str) -> &'static [&'static str] {
    match domain {
        "American Football" => {
            &["quarterback", "touchdown", "stadium", "coach", "playoff", "league"]
        }
        "Doctor Who" => &["tardis", "dalek", "regeneration", "timelord", "sonic", "companion"],
        "Fallout" => &["vault", "wasteland", "raider", "stimpak", "overseer", "mutant"],
        "Final Fantasy" => &["chocobo", "summon", "crystal", "airship", "esper", "limit"],
        "Military" => &["battalion", "regiment", "artillery", "garrison", "offensive", "armour"],
        "Pro Wrestling" => &["champion", "heel", "ringside", "suplex", "federation", "title"],
        "StarWars" => &["jedi", "lightsaber", "droid", "empire", "force", "cruiser"],
        "World of Warcraft" => &["raid", "horde", "alliance", "dungeon", "quest", "mana"],
        "Coronation Street" => &["cobbles", "pub", "landlady", "affair", "factory", "wedding"],
        "Muppets" => &["puppet", "sketch", "theatre", "frog", "song", "backstage"],
        "Ice Hockey" => &["goaltender", "puck", "hattrick", "rink", "faceoff", "penalty"],
        "Elder Scrolls" => &["daedra", "dovah", "shout", "guild", "mage", "scroll"],
        "Forgotten Realms" => &["dragon", "realm", "archmage", "sword", "temple", "drow"],
        "Lego" => &["brick", "minifigure", "baseplate", "stud", "playset", "instruction"],
        "Star Trek" => &["starship", "warp", "federation", "phaser", "shuttlecraft", "tricorder"],
        "YuGiOh" => &["duel", "monster", "trap", "summon", "graveyard", "archetype"],
        _ => &[],
    }
}

/// Entity type words shared by all domains; used as disambiguation
/// phrases and description slots.
pub(crate) const TYPE_WORDS: &[&str] =
    &["character", "location", "item", "episode", "event", "faction"];

/// A domain's content-word lexicon.
#[derive(Debug, Clone)]
pub struct Lexicon {
    general: Vec<String>,
    specific: Vec<String>,
    /// A small pool of high-frequency domain words (connective jargon
    /// that appears all over the domain but is never entity-salient —
    /// never chosen as a keyword). Their high document frequency is
    /// only observable from *target* text, which is exactly what the
    /// rewriter's unsupervised adaptation (syn → syn*) learns.
    common: Vec<String>,
    /// Probability of drawing a content word from the domain pool.
    gap: f64,
}

impl Lexicon {
    /// Build the shared general pool (same for every domain of a world).
    pub(crate) fn general_pool(world_rng: &Rng, size: usize) -> Vec<String> {
        let mut rng = world_rng.split(0x009E_3A11);
        let mut pool = Vec::with_capacity(size);
        let mut seen = std::collections::BTreeSet::new();
        while pool.len() < size {
            let w = pseudo_word(&mut rng);
            if seen.insert(w.clone()) {
                pool.push(w);
            }
        }
        pool
    }

    /// Build a domain lexicon.
    ///
    /// `domain_rng` must be a per-domain stream; `general` is the shared
    /// pool from `Lexicon::general_pool`.
    ///
    /// # Panics
    /// Panics if `general` is empty, `specific_size == 0`, or `gap` is
    /// outside `[0, 1]`.
    pub fn build(
        domain_name: &str,
        domain_rng: &Rng,
        general: Vec<String>,
        specific_size: usize,
        gap: f64,
    ) -> Self {
        assert!(!general.is_empty(), "Lexicon: general pool must be non-empty");
        assert!(specific_size > 0, "Lexicon: specific_size must be > 0");
        assert!((0.0..=1.0).contains(&gap), "Lexicon: gap must be in [0,1], got {gap}");
        let mut rng = domain_rng.split(0x05EC_1F1C);
        let mut specific: Vec<String> =
            themed_stems(domain_name).iter().map(|s| s.to_string()).collect();
        let mut seen: std::collections::BTreeSet<String> = specific.iter().cloned().collect();
        seen.extend(general.iter().cloned());
        while specific.len() < specific_size.max(specific.len()) {
            let w = pseudo_word(&mut rng);
            if seen.insert(w.clone()) {
                specific.push(w);
            }
        }
        let common_size = (specific_size / 16).clamp(6, 24);
        let mut common = Vec::with_capacity(common_size);
        while common.len() < common_size {
            let w = pseudo_word(&mut rng);
            if seen.insert(w.clone()) {
                common.push(w);
            }
        }
        Lexicon { general, specific, common, gap }
    }

    /// Sample a content word: domain pool with probability `gap`
    /// (split evenly between the small common pool and the salient
    /// pool), general pool otherwise.
    pub(crate) fn content_word(&self, rng: &mut Rng) -> &str {
        if rng.chance(self.gap) {
            if rng.chance(0.5) {
                rng.choose(&self.common).as_str()
            } else {
                rng.choose(&self.specific).as_str()
            }
        } else {
            rng.choose(&self.general).as_str()
        }
    }

    /// Sample a domain-specific word unconditionally (for entity
    /// keywords, which should be recognisably in-domain).
    pub(crate) fn specific_word(&self, rng: &mut Rng) -> &str {
        rng.choose(&self.specific).as_str()
    }

    /// Capitalise a word for use in a name/title.
    pub(crate) fn capitalize(word: &str) -> String {
        let mut cs = word.chars();
        match cs.next() {
            Some(first) => first.to_uppercase().chain(cs).collect(),
            None => String::new(),
        }
    }

    /// Sample an entity name of `len` capitalised words, biased to the
    /// domain pool (names are jargon-heavy even in low-gap domains).
    pub fn name(&self, rng: &mut Rng, len: usize) -> String {
        let mut parts = Vec::with_capacity(len);
        for _ in 0..len {
            let w = if rng.chance(self.gap.max(0.6)) {
                rng.choose(&self.specific).as_str()
            } else {
                rng.choose(&self.general).as_str()
            };
            parts.push(Self::capitalize(w));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lexicon(gap: f64) -> Lexicon {
        let world = Rng::seed_from_u64(7);
        let general = Lexicon::general_pool(&world, 50);
        Lexicon::build("Lego", &world.split(1), general, 40, gap)
    }

    #[test]
    fn pseudo_words_are_nonempty_and_deterministic() {
        let mut a = Rng::seed_from_u64(3);
        let mut b = Rng::seed_from_u64(3);
        for _ in 0..50 {
            let wa = pseudo_word(&mut a);
            assert!(!wa.is_empty());
            assert_eq!(wa, pseudo_word(&mut b));
            assert!(wa.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn general_pool_is_unique_and_sized() {
        let world = Rng::seed_from_u64(1);
        let pool = Lexicon::general_pool(&world, 100);
        assert_eq!(pool.len(), 100);
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn themed_stems_included_for_named_domains() {
        let lex = sample_lexicon(0.5);
        assert!(lex.specific.iter().any(|w| w == "brick"));
        assert!(lex.specific.iter().any(|w| w == "minifigure"));
        assert!(themed_stems("No Such Domain").is_empty());
    }

    #[test]
    fn gap_controls_pool_mixture() {
        let lex_hi = sample_lexicon(1.0);
        let mut rng = Rng::seed_from_u64(5);
        let mut common_hits = 0;
        for _ in 0..200 {
            let w = lex_hi.content_word(&mut rng).to_string();
            let in_specific = lex_hi.specific.contains(&w);
            let in_common = lex_hi.common.contains(&w);
            assert!(in_specific || in_common);
            common_hits += usize::from(in_common);
        }
        // The common pool supplies roughly half the domain draws.
        assert!((60..140).contains(&common_hits), "common draws {common_hits}");
        let lex_lo = sample_lexicon(0.0);
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..200 {
            let w = lex_lo.content_word(&mut rng).to_string();
            assert!(lex_lo.general.contains(&w));
        }
    }

    #[test]
    fn names_are_capitalised_with_requested_length() {
        let lex = sample_lexicon(0.7);
        let mut rng = Rng::seed_from_u64(9);
        let name = lex.name(&mut rng, 2);
        let parts: Vec<&str> = name.split(' ').collect();
        assert_eq!(parts.len(), 2);
        for p in parts {
            assert!(p.chars().next().unwrap().is_uppercase());
        }
    }

    #[test]
    #[should_panic(expected = "gap must be in [0,1]")]
    fn rejects_bad_gap() {
        let world = Rng::seed_from_u64(7);
        let general = Lexicon::general_pool(&world, 10);
        Lexicon::build("X", &world.split(1), general, 10, 1.5);
    }

    #[test]
    fn different_domains_get_different_jargon() {
        let world = Rng::seed_from_u64(7);
        let general = Lexicon::general_pool(&world, 50);
        let a = Lexicon::build("A", &world.split(1), general.clone(), 60, 0.5);
        let b = Lexicon::build("B", &world.split(2), general, 60, 0.5);
        let sa: std::collections::HashSet<_> = a.specific.iter().collect();
        let overlap = b.specific.iter().filter(|w| sa.contains(w)).count();
        assert!(overlap < 10, "domain pools overlap too much: {overlap}");
    }
}
