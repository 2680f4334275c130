//! Resilience tunables ([`ServeConfig`]) and the token-style admission
//! gate that sits ahead of the batch queue.
//!
//! Every timeout and shedding threshold the server applies lives here
//! instead of as a hard-coded constant, so operators can trade latency
//! SLOs against throughput per deployment. The admission gate bounds
//! the number of `/link` requests *inside* the server (queued or
//! waiting on a reply) so overload degrades to fast `503 + Retry-After`
//! rejections instead of a pile of handler threads parked on reply
//! channels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Resilience knobs: timeouts, deadline budgets, admission limits.
///
/// All durations are milliseconds; `0` disables the optional read
/// timeout, and "use the default" is expressed by
/// [`ServeConfig::default`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Socket read timeout for connection handlers (ms); `0` disables
    /// the timeout entirely. Bounds how long a slow-loris peer can park
    /// a handler thread.
    pub read_timeout_ms: u64,
    /// Upper bound a handler waits for a worker's reply (ms) — the
    /// guard against a dead worker pool, not the normal path.
    pub reply_timeout_ms: u64,
    /// Deadline budget applied when a `/link` request does not carry
    /// its own `deadline_ms` field.
    pub default_deadline_ms: u64,
    /// Hard cap on client-supplied `deadline_ms`; larger requests are
    /// clamped, so a client cannot opt out of shedding.
    pub max_deadline_ms: u64,
    /// Value of the `Retry-After` header (seconds) on every 503.
    pub retry_after_s: u64,
    /// Most `/link` requests admitted into the server at once (queued
    /// plus awaiting reply); `0` sizes it automatically from the queue
    /// capacity and worker fan-out.
    pub admission_limit: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout_ms: 30_000,
            reply_timeout_ms: 60_000,
            default_deadline_ms: 10_000,
            max_deadline_ms: 30_000,
            retry_after_s: 1,
            admission_limit: 0,
        }
    }
}

impl ServeConfig {
    /// The handler read timeout as an `Option` (0 → no timeout).
    pub(crate) fn read_timeout(&self) -> Option<Duration> {
        (self.read_timeout_ms > 0).then(|| Duration::from_millis(self.read_timeout_ms))
    }

    /// The reply-channel timeout, floored at 1 ms so a zero config
    /// cannot make every request fail instantly.
    pub(crate) fn reply_timeout(&self) -> Duration {
        Duration::from_millis(self.reply_timeout_ms.max(1))
    }

    /// Clamp a request's deadline budget: absent → default, present →
    /// floored at 1 ms and capped at `max_deadline_ms`.
    pub(crate) fn clamp_deadline_ms(&self, requested: Option<u64>) -> u64 {
        let max = self.max_deadline_ms.max(1);
        requested.unwrap_or(self.default_deadline_ms).clamp(1, max)
    }

    /// The effective admission limit given the queue capacity and
    /// worker fan-out: explicit when configured, otherwise everything
    /// that can be queued plus one full batch per worker in flight.
    pub(crate) fn effective_admission_limit(
        &self,
        queue_capacity: usize,
        workers: usize,
        max_batch: usize,
    ) -> u64 {
        if self.admission_limit > 0 {
            return self.admission_limit;
        }
        (queue_capacity + workers.max(1) * max_batch.max(1)) as u64
    }
}

/// A token-style concurrency gate: [`AdmissionGate::try_acquire`] hands
/// out at most `limit` permits; a denied acquire is the caller's cue to
/// shed immediately. Permits release on drop, so every exit path of a
/// handler — reply, timeout, shed — returns its token.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    limit: u64,
    inflight: AtomicU64,
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent holders (`limit` is
    /// floored at 1 — a zero-width gate would reject everything).
    pub fn new(limit: u64) -> Self {
        AdmissionGate { limit: limit.max(1), inflight: AtomicU64::new(0) }
    }

    /// Acquire a permit, or `None` when the gate is full.
    pub(crate) fn try_acquire(&self) -> Option<AdmissionPermit<'_>> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.limit {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(AdmissionPermit { gate: self })
    }

    /// Permits currently held.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }
}

/// An admission token; dropping it releases the slot.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_clamping_applies_default_floor_and_cap() {
        let cfg = ServeConfig {
            default_deadline_ms: 5_000,
            max_deadline_ms: 8_000,
            ..Default::default()
        };
        assert_eq!(cfg.clamp_deadline_ms(None), 5_000);
        assert_eq!(cfg.clamp_deadline_ms(Some(2_000)), 2_000);
        assert_eq!(cfg.clamp_deadline_ms(Some(99_999)), 8_000);
        assert_eq!(cfg.clamp_deadline_ms(Some(0)), 1);
    }

    #[test]
    fn zero_read_timeout_means_none() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.read_timeout(), Some(Duration::from_millis(30_000)));
        cfg.read_timeout_ms = 0;
        assert_eq!(cfg.read_timeout(), None);
    }

    #[test]
    fn auto_admission_limit_tracks_queue_and_workers() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.effective_admission_limit(256, 2, 16), 256 + 32);
        let explicit = ServeConfig { admission_limit: 7, ..Default::default() };
        assert_eq!(explicit.effective_admission_limit(256, 2, 16), 7);
    }

    #[test]
    fn gate_caps_concurrent_permits_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let _b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "gate is full");
        assert_eq!(gate.inflight(), 2);
        drop(a);
        assert_eq!(gate.inflight(), 1);
        assert!(gate.try_acquire().is_some(), "slot freed by drop");
    }

    #[test]
    fn gate_is_safe_under_contention() {
        let gate = std::sync::Arc::new(AdmissionGate::new(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gate = std::sync::Arc::clone(&gate);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for _ in 0..1_000 {
                        if let Some(p) = gate.try_acquire() {
                            admitted += 1;
                            drop(p);
                        }
                    }
                    admitted
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        assert_eq!(gate.inflight(), 0, "all permits returned");
    }
}
