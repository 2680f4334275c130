//! # mb-fault
//!
//! Deterministic fault injection for crash-safety testing of the
//! MetaBLINK training pipeline. Everything here plugs into the two
//! seams `mb-common` exposes:
//!
//! * [`mb_common::storage::StepBudget`] — [`KillAt`] aborts a run at an
//!   exact unit of progress, simulating the process dying there;
//!   [`TickCounter`] measures how many units a run takes, so tests can
//!   then kill at every possible point.
//! * [`mb_common::storage::Storage`] — [`FaultyStorage`] wraps any
//!   backend and injects torn writes, single-bit corruption, and
//!   transient I/O errors according to a seed-driven [`Fault`] plan.
//!
//! Every fault is deterministic: the same seed and the same plan
//! produce byte-identical corruption, so a failure found in CI replays
//! exactly from its seed. This is the fault model the `mb-params v2`
//! checkpoint format and the `mb-core` checkpoint manager are tested
//! against (see DESIGN.md).
//!
//! The fault model, precisely:
//!
//! * **Kill** ([`KillAt`]): the run stops with [`Error::Aborted`]
//!   between two units of work. State checkpointed before the kill
//!   survives; everything after is lost. Recovery: resume from the
//!   newest checkpoint and replay.
//! * **Torn write** ([`Fault::TornWrite`]): a write reports success but
//!   only a prefix of the bytes is durable — what a crash during a
//!   non-atomic write, or a lying disk cache, leaves behind. Recovery:
//!   the v2 section framing detects the truncation at load time and the
//!   manager falls back to the previous good generation.
//! * **Bit flip** ([`Fault::BitFlip`]): a write reports success but one
//!   seed-chosen bit of the stored bytes is inverted — media
//!   corruption. Recovery: the per-section CRC detects it; fall back.
//! * **Transient I/O** ([`Fault::TransientIo`]): an operation fails
//!   with [`Error::Io`] a bounded number of times, then works —
//!   NFS hiccups, `EINTR`, momentary `ENOSPC`. Recovery: bounded retry
//!   with backoff at the call site.
//!
//! The [`net`] module extends the same seed-replayable philosophy to
//! the network: a fault-injecting TCP proxy ([`net::NetProxy`]) that
//! slow-rolls requests, tears replies mid-response, aborts connections,
//! and stalls readers — the fault model mb-serve's chaos tests run
//! against.

#![warn(missing_docs)]

pub mod net;

use mb_common::storage::{StepBudget, Storage};
use mb_common::{Error, Result, Rng};
use std::path::Path;

/// A [`StepBudget`] that aborts the run at an exact point, simulating a
/// process kill between two units of work.
#[derive(Debug, Clone)]
pub struct KillAt {
    at: u64,
    ticks: u64,
}

impl KillAt {
    /// Abort on the `at`-th call to [`StepBudget::tick`] (0-based): the
    /// run performs exactly `at` units of work before dying.
    pub fn new(at: u64) -> Self {
        KillAt { at, ticks: 0 }
    }

    /// Number of successful ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

impl StepBudget for KillAt {
    fn tick(&mut self) -> Result<()> {
        if self.ticks == self.at {
            return Err(Error::Aborted(format!("injected kill at step {}", self.at)));
        }
        self.ticks += 1;
        Ok(())
    }
}

/// A [`StepBudget`] that never aborts but counts ticks, used to measure
/// the total number of kill points in a run before sweeping them.
#[derive(Debug, Clone, Default)]
pub struct TickCounter {
    ticks: u64,
}

impl TickCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        TickCounter::default()
    }

    /// Number of ticks observed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

impl StepBudget for TickCounter {
    fn tick(&mut self) -> Result<()> {
        self.ticks += 1;
        Ok(())
    }
}

/// One injectable storage fault. Write indices are 0-based and count
/// calls to [`Storage::write_atomic`]; operation indices count every
/// fallible storage call (read, write, remove, list) in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `at_write`-th write reports success but stores only a
    /// seed-chosen strict prefix of the data.
    TornWrite {
        /// Index of the write to tear.
        at_write: u64,
    },
    /// The `at_write`-th write reports success but one seed-chosen bit
    /// of the stored bytes is inverted.
    BitFlip {
        /// Index of the write to corrupt.
        at_write: u64,
    },
    /// Operations `at_op .. at_op + failures` each fail with
    /// [`Error::Io`], after which storage works normally.
    TransientIo {
        /// Index of the first failing operation.
        at_op: u64,
        /// How many consecutive operations fail.
        failures: u64,
    },
}

/// A [`Storage`] wrapper that injects the faults in its plan
/// deterministically, driven by a seed.
///
/// Corruption faults (torn writes, bit flips) report **success** to the
/// writer — the code under test believes the checkpoint is durable, and
/// only discovers the damage at load time. That is the scenario the
/// generation-fallback recovery path exists for.
#[derive(Debug, Clone)]
pub struct FaultyStorage<S> {
    inner: S,
    rng: Rng,
    faults: Vec<Fault>,
    writes: u64,
    ops: u64,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wrap `inner` with the fault plan `faults` (empty: plain
    /// pass-through); `seed` drives all random choices (tear length,
    /// flipped bit).
    pub fn new(inner: S, seed: u64, faults: Vec<Fault>) -> Self {
        FaultyStorage { inner, rng: Rng::seed_from_u64(seed), faults, writes: 0, ops: 0 }
    }

    /// Number of writes attempted so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of fallible operations attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Access the wrapped backend (e.g. to inspect stored bytes).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Fails with [`Error::Io`] if the current op index is inside a
    /// `TransientIo` window. Must be called exactly once per operation.
    fn account_op(&mut self) -> Result<()> {
        let op = self.ops;
        self.ops += 1;
        for f in &self.faults {
            if let Fault::TransientIo { at_op, failures } = *f {
                if op >= at_op && op < at_op + failures {
                    return Err(Error::Io(format!("injected transient io error at op {op}")));
                }
            }
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>> {
        self.account_op()?;
        self.inner.read(path)
    }

    fn write_atomic(&mut self, path: &Path, data: &[u8]) -> Result<()> {
        self.account_op()?;
        let write = self.writes;
        self.writes += 1;
        let mut stored = data.to_vec();
        for f in &self.faults {
            match *f {
                Fault::TornWrite { at_write } if at_write == write => {
                    // Keep a strict prefix: [0, len) bytes survive.
                    let keep = if stored.is_empty() {
                        0
                    } else {
                        (self.rng.next_u64() % stored.len() as u64) as usize
                    };
                    stored.truncate(keep);
                }
                Fault::BitFlip { at_write } if at_write == write && !stored.is_empty() => {
                    let bit = (self.rng.next_u64() % (stored.len() as u64 * 8)) as usize;
                    stored[bit / 8] ^= 1 << (bit % 8);
                }
                _ => {}
            }
        }
        self.inner.write_atomic(path, &stored)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &Path) -> Result<()> {
        self.account_op()?;
        self.inner.remove(path)
    }

    fn list(&mut self, dir: &Path) -> Result<Vec<String>> {
        self.account_op()?;
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::storage::MemStorage;

    #[test]
    fn kill_at_aborts_exactly_there() {
        let mut b = KillAt::new(3);
        assert!(b.tick().is_ok());
        assert!(b.tick().is_ok());
        assert!(b.tick().is_ok());
        let err = b.tick().unwrap_err();
        assert!(matches!(err, Error::Aborted(_)), "got {err:?}");
        assert_eq!(b.ticks(), 3);
        // Still dead on subsequent ticks.
        assert!(b.tick().is_err());
    }

    #[test]
    fn kill_at_zero_dies_immediately() {
        let mut b = KillAt::new(0);
        assert!(b.tick().is_err());
    }

    #[test]
    fn tick_counter_counts() {
        let mut c = TickCounter::new();
        for _ in 0..17 {
            c.tick().unwrap();
        }
        assert_eq!(c.ticks(), 17);
    }

    #[test]
    fn torn_write_stores_prefix_but_reports_success() {
        let mem = MemStorage::new();
        let mut s = FaultyStorage::new(mem.clone(), 11, vec![Fault::TornWrite { at_write: 1 }]);
        let p = Path::new("ckpt/a");
        let data = vec![7u8; 100];
        s.write_atomic(p, &data).unwrap(); // write 0: clean
        assert_eq!(mem.peek(p).unwrap(), data);
        s.write_atomic(p, &data).unwrap(); // write 1: torn, still Ok
        let stored = mem.peek(p).unwrap();
        assert!(stored.len() < data.len(), "tear kept all {} bytes", stored.len());
        assert_eq!(&stored[..], &data[..stored.len()], "tear must be a prefix");
    }

    #[test]
    fn bit_flip_inverts_exactly_one_bit() {
        let mem = MemStorage::new();
        let mut s = FaultyStorage::new(mem.clone(), 5, vec![Fault::BitFlip { at_write: 0 }]);
        let p = Path::new("x");
        let data = vec![0u8; 64];
        s.write_atomic(p, &data).unwrap();
        let stored = mem.peek(p).unwrap();
        assert_eq!(stored.len(), data.len());
        let flipped: u32 = stored.iter().zip(&data).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn corruption_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mem = MemStorage::new();
            let mut s = FaultyStorage::new(
                mem.clone(),
                seed,
                vec![Fault::BitFlip { at_write: 0 }, Fault::TornWrite { at_write: 1 }],
            );
            s.write_atomic(Path::new("a"), &[0xAB; 200]).unwrap();
            s.write_atomic(Path::new("b"), &[0xCD; 200]).unwrap();
            (mem.peek(Path::new("a")).unwrap(), mem.peek(Path::new("b")).unwrap())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn transient_io_fails_bounded_then_recovers() {
        let mut s = FaultyStorage::new(
            MemStorage::new(),
            1,
            vec![Fault::TransientIo { at_op: 1, failures: 2 }],
        );
        let p = Path::new("x");
        s.write_atomic(p, b"v1").unwrap(); // op 0: ok
        assert!(matches!(s.write_atomic(p, b"v2"), Err(Error::Io(_)))); // op 1
        assert!(matches!(s.read(p), Err(Error::Io(_)))); // op 2
        assert_eq!(s.read(p).unwrap(), b"v1"); // op 3: recovered, v2 never landed
        assert_eq!(s.ops(), 4);
    }

    #[test]
    fn unfaulted_ops_pass_through() {
        let mut s = FaultyStorage::new(MemStorage::new(), 9, Vec::new());
        let d = Path::new("dir");
        s.write_atomic(&d.join("k"), b"v").unwrap();
        assert!(s.exists(&d.join("k")));
        assert_eq!(s.list(d).unwrap(), vec!["k".to_string()]);
        s.remove(&d.join("k")).unwrap();
        assert!(!s.exists(&d.join("k")));
    }
}
