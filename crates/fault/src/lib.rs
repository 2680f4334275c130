//! # mb-fault
//!
//! Deterministic fault injection for crash-safety testing of the
//! MetaBLINK training pipeline and the server.
//!
//! * **Kill** ([`KillAt`], through the [`mb_common::storage::StepBudget`]
//!   seam): the run stops with [`Error::Aborted`] between two units of
//!   work. State checkpointed before the kill survives; everything after
//!   is lost. Recovery: resume from the newest checkpoint and replay.
//!   `crates/core/tests/resume.rs` sweeps the kill point over every
//!   unit of a run.
//!
//! Storage corruption (torn writes, bit flips, transient I/O) needs no
//! wrapper here: the checkpoint tests damage the stored bytes
//! themselves (`MemStorage::poke` in `crates/core/src/checkpoint.rs`,
//! every flip and truncation in `crates/tensor/tests/proptest_checkpoint.rs`;
//! DESIGN.md §8).
//!
//! The [`net`] module brings seed-replayable faults to the network: a
//! fault-injecting TCP proxy ([`net::NetProxy`]) that slow-rolls
//! requests, tears replies mid-response, aborts connections, and stalls
//! readers — the fault model mb-serve's chaos tests run against.

#![warn(missing_docs)]

pub mod net;

use mb_common::storage::StepBudget;
use mb_common::{Error, Result};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
