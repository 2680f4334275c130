//! Lock-free serving metrics with fixed-bucket histograms.
//!
//! Everything is an atomic counter, so the hot path (acceptors and
//! batch workers) never takes a lock to record. Latency quantiles are
//! estimated from a fixed-bucket histogram: the reported pXX is the
//! upper bound of the bucket holding that quantile, which is exact
//! enough for dashboards and avoids retaining per-request samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (microseconds) of the latency histogram buckets; one
/// implicit overflow bucket follows the last bound.
pub(crate) const LATENCY_BUCKETS_US: [u64; 12] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000];

/// Upper bounds of the batch-size histogram buckets (power-of-two
/// ranges), plus one implicit overflow bucket.
pub(crate) const BATCH_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

const NLAT: usize = LATENCY_BUCKETS_US.len() + 1;
const NBATCH: usize = BATCH_BUCKETS.len() + 1;

/// Point-in-time gauges the caller samples when rendering `/metrics`
/// (queue depth from the [`crate::queue::BatchQueue`], the rest from
/// the admission gate and the model registry).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gauges {
    /// Items currently queued.
    pub queue_depth: usize,
    /// Admission permits currently held.
    pub inflight: u64,
    /// Current model generation id.
    pub generation: u64,
    /// Successful hot swaps so far.
    pub swaps: u64,
    /// Candidate generations rejected (corrupt or inconsistent).
    pub reload_rejected: u64,
}

/// Counters exposed on `GET /metrics`.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Total HTTP requests parsed (any endpoint).
    requests: AtomicU64,
    /// Responses by coarse status class.
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// `/link` requests shed by the bounded queue (also counted 5xx).
    rejected: AtomicU64,
    /// Requests refused by the admission gate (also counted 5xx).
    admission_rejected: AtomicU64,
    /// Requests shed because their deadline could not be met (at
    /// admission estimate or queue drain; also counted 5xx).
    deadline_shed: AtomicU64,
    /// Handlers that hit the reply-timeout guard (dead worker pool).
    reply_timeouts: AtomicU64,
    /// EWMA of batch service time (µs), the drain-rate estimate the
    /// shedding policy divides deadlines by.
    service_ewma_us: AtomicU64,
    /// End-to-end `/link` latency histogram (microseconds).
    latency: [AtomicU64; NLAT],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    /// Inference batch sizes.
    batch: [AtomicU64; NBATCH],
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Link-result cache lookups, one per `/link` job, summed over every
    /// worker's LRU and every generation (monotone: a hot swap resets
    /// the LRUs, not these).
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

fn bucket_of(bounds: &[u64], value: u64) -> usize {
    bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len())
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Count one parsed request.
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response by status code.
    pub(crate) fn record_response(&self, status: u16) {
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one load-shed (503) rejection.
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one admission-gate refusal.
    pub(crate) fn record_admission_rejected(&self) {
        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one deadline-based shed.
    pub(crate) fn record_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one reply-timeout (the dead-worker-pool guard firing).
    pub(crate) fn record_reply_timeout(&self) {
        self.reply_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one batch's service time into the drain-rate EWMA
    /// (weight 1/8 — smooth enough to ignore one outlier batch, fresh
    /// enough to track a load shift within a few batches).
    pub(crate) fn record_service_us(&self, us: u64) {
        let prev = self.service_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 { us } else { (prev * 7 + us) / 8 };
        self.service_ewma_us.store(next, Ordering::Relaxed);
    }

    /// The current batch-service EWMA (µs); 0 until a batch completes.
    pub(crate) fn service_ewma_us(&self) -> u64 {
        self.service_ewma_us.load(Ordering::Relaxed)
    }

    /// Record one end-to-end `/link` latency.
    pub(crate) fn record_latency_us(&self, us: u64) {
        // bucket_of returns at most bounds.len(), and the array has
        // bounds.len() + 1 slots, so `get` always finds a counter.
        if let Some(c) = self.latency.get(bucket_of(&LATENCY_BUCKETS_US, us)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one drained inference batch of `size` requests.
    pub(crate) fn record_batch(&self, size: usize) {
        if let Some(c) = self.batch.get(bucket_of(&BATCH_BUCKETS, size as u64)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Add one batch's result-cache hits and misses.
    pub(crate) fn add_cache_counters(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Estimate the `q` quantile (0 < q ≤ 1) of recorded latencies:
    /// the upper bound of the histogram bucket containing it, in
    /// microseconds. Returns 0 when nothing was recorded.
    pub(crate) fn latency_quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.latency.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Render the Prometheus-style text exposition; `gauges` carries
    /// the point-in-time values sampled by the caller at render time.
    pub fn render(&self, gauges: &Gauges) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("serve_requests_total {}\n", load(&self.requests)));
        out.push_str(&format!(
            "serve_responses_total{{class=\"2xx\"}} {}\n",
            load(&self.responses_2xx)
        ));
        out.push_str(&format!(
            "serve_responses_total{{class=\"4xx\"}} {}\n",
            load(&self.responses_4xx)
        ));
        out.push_str(&format!(
            "serve_responses_total{{class=\"5xx\"}} {}\n",
            load(&self.responses_5xx)
        ));
        out.push_str(&format!("serve_rejected_total {}\n", load(&self.rejected)));
        out.push_str(&format!(
            "serve_admission_rejected_total {}\n",
            load(&self.admission_rejected)
        ));
        out.push_str(&format!("serve_deadline_shed_total {}\n", load(&self.deadline_shed)));
        out.push_str(&format!("serve_reply_timeout_total {}\n", load(&self.reply_timeouts)));
        out.push_str(&format!("serve_queue_depth {}\n", gauges.queue_depth));
        out.push_str(&format!("serve_inflight_requests {}\n", gauges.inflight));
        out.push_str(&format!("serve_model_generation {}\n", gauges.generation));
        out.push_str(&format!("serve_model_swaps_total {}\n", gauges.swaps));
        out.push_str(&format!("serve_reload_rejected_total {}\n", gauges.reload_rejected));
        out.push_str(&format!("serve_batch_service_ewma_us {}\n", load(&self.service_ewma_us)));

        let mut cum = 0u64;
        for (i, c) in self.latency.iter().enumerate() {
            cum += load(c);
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "+Inf".to_string());
            out.push_str(&format!("serve_latency_us_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!("serve_latency_us_sum {}\n", load(&self.latency_sum_us)));
        out.push_str(&format!("serve_latency_us_count {}\n", load(&self.latency_count)));
        for q in [0.5, 0.95, 0.99] {
            out.push_str(&format!(
                "serve_latency_p{:02}_us {}\n",
                (q * 100.0) as u32,
                self.latency_quantile_us(q)
            ));
        }

        let mut cum = 0u64;
        for (i, c) in self.batch.iter().enumerate() {
            cum += load(c);
            let le =
                BATCH_BUCKETS.get(i).map(|b| b.to_string()).unwrap_or_else(|| "+Inf".to_string());
            out.push_str(&format!("serve_batch_size_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!("serve_batches_total {}\n", load(&self.batches)));
        out.push_str(&format!("serve_batched_requests_total {}\n", load(&self.batched_requests)));

        let hits = load(&self.cache_hits);
        let misses = load(&self.cache_misses);
        out.push_str(&format!("serve_cache_hits_total {hits}\n"));
        out.push_str(&format!("serve_cache_misses_total {misses}\n"));
        let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        out.push_str(&format!("serve_cache_hit_rate {rate:.6}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_come_from_bucket_bounds() {
        let m = Metrics::new();
        for _ in 0..90 {
            m.record_latency_us(80); // bucket ≤100
        }
        for _ in 0..10 {
            m.record_latency_us(40_000); // bucket ≤50_000
        }
        assert_eq!(m.latency_quantile_us(0.5), 100);
        assert_eq!(m.latency_quantile_us(0.95), 50_000);
        assert_eq!(m.latency_quantile_us(0.99), 50_000);
    }

    #[test]
    fn render_is_non_empty_and_consistent() {
        let m = Metrics::new();
        m.record_request();
        m.record_response(200);
        m.record_batch(3);
        m.record_latency_us(700);
        // Per-batch deltas accumulate; a batch served by a fresh LRU
        // (all misses) never pulls the totals back.
        m.add_cache_counters(3, 0);
        m.add_cache_counters(0, 1);
        let gauges =
            Gauges { queue_depth: 2, inflight: 1, generation: 3, swaps: 2, reload_rejected: 1 };
        let text = m.render(&gauges);
        assert!(text.contains("serve_requests_total 1"));
        assert!(text.contains("serve_queue_depth 2"));
        assert!(text.contains("serve_inflight_requests 1"));
        assert!(text.contains("serve_model_generation 3"));
        assert!(text.contains("serve_model_swaps_total 2"));
        assert!(text.contains("serve_reload_rejected_total 1"));
        assert!(text.contains("serve_batch_size_bucket{le=\"4\"} 1"));
        assert!(text.contains("serve_cache_hit_rate 0.75"));
    }

    #[test]
    fn shedding_counters_render() {
        let m = Metrics::new();
        m.record_admission_rejected();
        m.record_deadline_shed();
        m.record_deadline_shed();
        m.record_reply_timeout();
        let text = m.render(&Gauges::default());
        assert!(text.contains("serve_admission_rejected_total 1"));
        assert!(text.contains("serve_deadline_shed_total 2"));
        assert!(text.contains("serve_reply_timeout_total 1"));
    }

    #[test]
    fn service_ewma_smooths_toward_new_samples() {
        let m = Metrics::new();
        assert_eq!(m.service_ewma_us(), 0);
        m.record_service_us(800);
        assert_eq!(m.service_ewma_us(), 800, "first sample seeds the EWMA");
        m.record_service_us(1_600);
        assert_eq!(m.service_ewma_us(), 900, "(800*7 + 1600) / 8");
        assert!(m.render(&Gauges::default()).contains("serve_batch_service_ewma_us 900"));
    }

    #[test]
    fn overflow_latency_lands_in_inf_bucket() {
        let m = Metrics::new();
        m.record_latency_us(10_000_000);
        assert_eq!(m.latency_quantile_us(0.5), u64::MAX);
        assert!(m.render(&Gauges::default()).contains("serve_latency_us_bucket{le=\"+Inf\"} 1"));
    }
}
