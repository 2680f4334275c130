//! Pure helpers: order statistics, the Zipf sampler, the open-loop
//! plan and the output checksum. Everything here is a function of its
//! arguments only, so the same `--seed` replays the same run.

use mb_common::Rng;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
/// Empty input yields `NaN` so a missing sample can never read as a
/// real timing.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending in the IEEE total order (never panics on `NaN`).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median: the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// A tail percentile is *resolved* when at least ten samples lie
/// beyond it (choosing-metrics §1); otherwise it is one or two
/// outliers, not a percentile.
pub fn tail_resolved(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// One timed operation of a measured region.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the operation was due or sent, from the region's start.
    pub at_s: f64,
    pub latency_s: f64,
}

/// Windows a measured region is cut into. The box this runs on is
/// shared: it stalls for 50-250 ms a few times a minute and slows
/// memory-bound code by 10-40 % for seconds at a time. The noise only
/// ever makes things slower, so a statistic is taken per window and
/// the quartile of the windows on the *good* side is reported: it does
/// not move while a quarter of the windows are undisturbed, and a
/// slowdown of the code itself moves every window.
pub const WINDOWS: usize = 10;

/// Cut `[0, seconds)` into `windows` equal windows by start time, take
/// the `q` quantile of latency in each, and return the lower quartile
/// over windows with the smallest window's sample count.
pub fn windowed_quantile(samples: &[Sample], seconds: f64, windows: usize, q: f64) -> (f64, usize) {
    let mut per_window = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.at_s / seconds * windows as f64) as usize).min(windows - 1);
        per_window[w].push(s.latency_s);
    }
    let fewest = per_window.iter().map(Vec::len).min().unwrap_or(0);
    let quantiles: Vec<f64> =
        per_window.into_iter().filter(|w| !w.is_empty()).map(|w| quantile(&sorted(w), q)).collect();
    (quantile(&sorted(quantiles), 0.25), fewest)
}

/// Operations completed per second: cut `[0, seconds)` into
/// [`WINDOWS`] equal windows by completion time, take in each the rate
/// between its first and last completion, and return the upper
/// quartile over windows.
pub fn windowed_rate(samples: &[Sample], seconds: f64) -> f64 {
    let mut done = vec![Vec::new(); WINDOWS];
    for s in samples {
        let at = s.at_s + s.latency_s;
        if at < seconds {
            done[(at / seconds * WINDOWS as f64) as usize].push(at);
        }
    }
    let rates: Vec<f64> = done
        .into_iter()
        .filter(|w| w.len() >= 2)
        .map(|w| {
            let w = sorted(w);
            (w.len() - 1) as f64 / (w[w.len() - 1] - w[0])
        })
        .collect();
    quantile(&sorted(rates), 0.75)
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty pool");
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.f64() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One arrival of the open-loop plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Offset from the start of the plan at which the request is due.
    pub due_ns: u64,
    /// Index into the mention pool.
    pub mention: usize,
}

/// The open-loop plan: `rate × seconds` arrivals at a fixed interval,
/// each drawing its mention Zipf(1.1) from a pool of `pool` mentions.
/// Popular ranks are scattered over the pool by a fixed odd multiplier
/// so "popular" never means "adjacent in the store".
pub fn paced_plan(seed: u64, rate: u64, seconds: f64, pool: usize) -> Vec<Slot> {
    let zipf = Zipf::new(pool, 1.1);
    let mut rng = Rng::seed_from_u64(seed ^ 0x9ACE_D000);
    let n = (rate as f64 * seconds).round() as u64;
    (0..n)
        .map(|k| Slot {
            due_ns: k * 1_000_000_000 / rate,
            mention: zipf.sample(&mut rng).wrapping_mul(2_654_435_761) % pool,
        })
        .collect()
}

/// FNV-1a over the benchmark's outputs (ids and score bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p99_by_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&xs), 500.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&xs, 0.5), 500.0);
        assert_eq!(quantile(&xs, 0.99), 990.0);
        assert_eq!(quantile(&xs, 1.0), 1000.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_resolved(1000, 0.99));
        assert!(!tail_resolved(999, 0.99));
        assert!(tail_resolved(200, 0.95));
        assert!(!tail_resolved(199, 0.95));
        assert_eq!(samples_beyond(3, 1.0), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn disturbed_windows_move_neither_the_tail_nor_the_rate() {
        // 100 ops/s for 10 s at 1 ms. Disturbed: a 300 ms stall at
        // t = 4.1 s delays everything due while it lasts, and every
        // operation from t = 6 s on takes twice as long.
        let run = |disturbed: bool| -> Vec<Sample> {
            (0..1000)
                .map(|k| {
                    let at_s = k as f64 / 100.0;
                    let held = if (4.1..4.4).contains(&at_s) { 4.4 - at_s } else { 0.0 };
                    let slow = if at_s >= 6.0 { 0.001 } else { 0.0 };
                    Sample { at_s, latency_s: 0.001 + if disturbed { held + slow } else { 0.0 } }
                })
                .collect()
        };
        let (calm, noisy) = (run(false), run(true));
        assert_eq!(windowed_quantile(&calm, 10.0, WINDOWS, 0.95), (0.001, 100));
        assert_eq!(windowed_quantile(&noisy, 10.0, WINDOWS, 0.95), (0.001, 100));
        assert!(windowed_quantile(&noisy, 10.0, 1, 0.99).0 > 0.1, "one window sees the stall");
        assert!((windowed_rate(&calm, 10.0) - 100.0).abs() < 1e-6);
        assert!((windowed_rate(&noisy, 10.0) - 100.0).abs() < 1e-6);
        // A slowdown of the code itself is in every window, and shows.
        let slower: Vec<Sample> = calm.iter().map(|s| Sample { latency_s: 0.002, ..*s }).collect();
        assert_eq!(windowed_quantile(&slower, 10.0, WINDOWS, 0.95).0, 0.002);
    }

    #[test]
    fn zipf_is_a_pure_function_of_the_seed_and_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let d = draw(5);
        assert!(d.iter().all(|&r| r < 1000));
        let head = d.iter().filter(|&&r| r < 10).count();
        let tail = d.iter().filter(|&&r| r >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn paced_plan_is_a_pure_function_of_the_seed() {
        let a = paced_plan(9, 150, 2.0, 500);
        assert_eq!(a, paced_plan(9, 150, 2.0, 500));
        assert_ne!(a, paced_plan(10, 150, 2.0, 500));
        assert_eq!(a.len(), 300);
        assert_eq!(a[0].due_ns, 0);
        assert_eq!(a[150].due_ns, 1_000_000_000);
        assert!(a.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        assert!(a.iter().all(|s| s.mention < 500));
    }

    #[test]
    fn checksum_sees_a_one_bit_change() {
        let sum = |x: f64| {
            let mut h = Fnv::new();
            h.u64(17);
            h.f64(x);
            h.0
        };
        assert_eq!(sum(0.25), sum(0.25));
        assert_ne!(sum(0.25), sum(f64::from_bits(0.25f64.to_bits() ^ 1)));
    }
}
