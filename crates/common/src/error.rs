//! Workspace-wide error type.
//!
//! Library crates in this workspace return [`Result`] for fallible
//! operations that a caller can reasonably recover from (bad
//! configuration, shape mismatches discovered at runtime boundaries,
//! serialization problems). Programming errors — indexing bugs, violated
//! internal invariants — panic instead, per standard Rust practice.

use std::fmt;

/// Errors produced by metablink-rs crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Tensor or batch shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape(s).
        expected: String,
        /// What the caller actually provided.
        got: String,
        /// The operation that rejected the shapes.
        op: &'static str,
    },
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A referenced entity / domain / vocabulary item does not exist.
    NotFound(String),
    /// A dataset or model file failed to parse.
    Parse(String),
    /// Training diverged (NaN/Inf loss or parameters).
    Diverged(String),
    /// An empty input where at least one element is required.
    Empty(&'static str),
    /// An I/O operation failed. Callers may treat this as transient and
    /// retry (the checkpoint manager does, with bounded backoff).
    Io(String),
    /// A checkpoint is unusable: corrupted, truncated, or missing
    /// required state — and no earlier good generation could be used.
    Checkpoint(String),
    /// A run was deliberately aborted mid-flight (e.g. by an injected
    /// kill from a fault-testing [`crate::storage::StepBudget`]).
    Aborted(String),
    /// A parallel worker panicked. The payload message is preserved so
    /// a poisoned shard surfaces as a recoverable error at the fork
    /// point instead of a nested panic (see `mb-par`).
    Worker(String),
    /// An exclusive operation is already running (a second model
    /// reload while one is in flight). Not a failure: the caller should
    /// retry once the running operation finishes.
    Busy(String),
    /// An internal invariant was violated on a path that must stay
    /// panic-free (serve-reachable code). Indicates a bug, but one the
    /// serving layer can report as a failed request instead of dying.
    Internal(String),
}

impl Error {
    /// Convenience constructor for [`Error::ShapeMismatch`].
    pub fn shape(op: &'static str, expected: impl Into<String>, got: impl Into<String>) -> Self {
        Error::ShapeMismatch { expected: expected.into(), got: got.into(), op }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { expected, got, op } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {got}")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Diverged(msg) => write!(f, "training diverged: {msg}"),
            Error::Empty(what) => write!(f, "empty input: {what}"),
            Error::Io(msg) => write!(f, "io error: {msg}"),
            Error::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            Error::Aborted(msg) => write!(f, "aborted: {msg}"),
            Error::Worker(msg) => write!(f, "parallel worker panicked: {msg}"),
            Error::Busy(msg) => write!(f, "busy: {msg}"),
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::shape("matmul", "[2, 3]", "[4, 5]");
        assert_eq!(e.to_string(), "shape mismatch in matmul: expected [2, 3], got [4, 5]");
        assert!(Error::InvalidConfig("dim must be > 0".into())
            .to_string()
            .contains("dim must be > 0"));
        assert!(Error::Empty("batch").to_string().contains("batch"));
        assert!(Error::Io("disk on fire".into()).to_string().contains("disk on fire"));
        assert!(Error::Checkpoint("bad crc".into()).to_string().starts_with("checkpoint"));
        assert!(Error::Aborted("killed at step 3".into()).to_string().contains("step 3"));
        assert!(Error::Busy("reload running".into()).to_string().starts_with("busy"));
        assert!(Error::Internal("empty batch result".into())
            .to_string()
            .starts_with("internal invariant"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
