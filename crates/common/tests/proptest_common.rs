//! Property-based tests of the RNG, numeric utilities, and LRU cache.

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_common::util::{argsort_desc, log_sum_exp, top_k_desc};
use mb_common::{LruCache, Rng};

/// Reference LRU: a vector ordered most → least recently used.
struct NaiveLru {
    cap: usize,
    entries: Vec<(u32, u32)>,
}

impl NaiveLru {
    fn get(&mut self, k: u32) -> Option<u32> {
        let i = self.entries.iter().position(|&(ek, _)| ek == k)?;
        let e = self.entries.remove(i);
        self.entries.insert(0, e);
        Some(e.1)
    }

    fn put(&mut self, k: u32, v: u32) {
        if let Some(i) = self.entries.iter().position(|&(ek, _)| ek == k) {
            self.entries.remove(i);
        }
        self.entries.insert(0, (k, v));
        self.entries.truncate(self.cap);
    }
}

mb_check::check! {
    #![config(cases = 128)]

    fn below_stays_in_range(seed in gen::u64_any(), n in gen::usize_in(1..1000)) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    fn shuffle_preserves_multiset(seed in gen::u64_any(), mut xs in gen::vec_of(gen::u32_in(0..100), 0..50)) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut original = xs.clone();
        rng.shuffle(&mut xs);
        original.sort_unstable();
        xs.sort_unstable();
        prop_assert_eq!(original, xs);
    }

    fn choose_weighted_only_picks_positive_weights(
        seed in gen::u64_any(),
        weights in gen::vec_of(gen::f64_in(0.0..5.0), 1..12),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let total: f64 = weights.iter().sum();
        for _ in 0..30 {
            let i = rng.choose_weighted(&weights);
            prop_assert!(i < weights.len());
            if total > 0.0 {
                prop_assert!(weights[i] > 0.0, "picked zero-weight index {i} of {weights:?}");
            }
        }
    }

    fn split_streams_are_reproducible(seed in gen::u64_any(), stream in gen::u64_any()) {
        let parent = Rng::seed_from_u64(seed);
        let mut a = parent.split(stream);
        let mut b = parent.split(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    fn log_sum_exp_bounds(xs in gen::vec_of(gen::f64_in(-50.0..50.0), 1..20)) {
        let lse = log_sum_exp(&xs);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    }

    fn top_k_is_argsort_prefix(xs in gen::vec_of(gen::f64_in(-100.0..100.0), 0..40), k in gen::usize_in(0..50)) {
        let top = top_k_desc(&xs, k);
        let full = argsort_desc(&xs);
        prop_assert_eq!(top.as_slice(), &full[..k.min(xs.len())]);
    }

    fn gaussian_is_finite(seed in gen::u64_any()) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.gaussian().is_finite());
        }
    }

    fn lru_matches_naive_model(
        cap in gen::usize_in(1..9),
        ops in gen::vec_of(gen::u32_in(0..64), 0..120),
    ) {
        // Op encoding: low 5 bits = key, bit 5 = put (vs get). Values
        // are a running counter so updates are observable.
        let mut lru = LruCache::new(cap);
        let mut naive = NaiveLru { cap, entries: Vec::new() };
        let mut counter = 0u32;
        for op in ops {
            let key = op & 0x1F;
            if op & 0x20 != 0 {
                counter += 1;
                lru.put(key, counter);
                naive.put(key, counter);
            } else {
                prop_assert_eq!(lru.get(&key).copied(), naive.get(key), "get({key})");
            }
            prop_assert_eq!(lru.len(), naive.entries.len());
            prop_assert!(lru.len() <= cap);
            let order: Vec<u32> = lru.keys_by_recency().into_iter().copied().collect();
            let naive_order: Vec<u32> = naive.entries.iter().map(|&(k, _)| k).collect();
            prop_assert_eq!(order, naive_order);
        }
    }

    fn lru_counters_add_up(
        cap in gen::usize_in(0..6),
        keys in gen::vec_of(gen::u32_in(0..16), 0..60),
    ) {
        let mut lru = LruCache::new(cap);
        let mut expected_hits = 0;
        for (i, k) in keys.iter().enumerate() {
            if lru.keys_by_recency().contains(&k) {
                expected_hits += 1;
            }
            if lru.get(k).is_none() {
                lru.put(*k, i as u32);
            }
        }
        prop_assert_eq!(lru.hits(), expected_hits);
        prop_assert_eq!(lru.hits() + lru.misses(), keys.len() as u64);
    }
}
