//! # mb-lint
//!
//! In-repo static analysis enforcing the guarantees the rest of this
//! workspace only holds by convention:
//!
//! - **panic-freedom** on the serving and checkpoint request/load
//!   paths (`crates/serve`, the `mb-params` checkpoint load/save in
//!   `crates/tensor`, its interpretation on resume in
//!   `crates/core/src/checkpoint.rs`, `crates/kb/src/store.rs`): no `.unwrap()`,
//!   `.expect()`, `panic!`-family macros, or direct slice indexing;
//! - **determinism** in the crates covered by the bit-identical
//!   resume guarantee: no `HashMap`/`HashSet` (their iteration order
//!   is per-process random and silently breaks the replay-by-seed
//!   reweighting experiments), no `SystemTime`/`Instant`-derived
//!   values, no `std::env`;
//! - **lock discipline** across `crates/serve`: the per-function
//!   lock-acquisition graph must be cycle-free, and no blocking I/O
//!   while holding a lock;
//! - an **unsafe gate**: `unsafe` is denied workspace-wide.
//!
//! One pass per file does all of it. A hand-rolled lexer ([`lexer`]) —
//! strings, char literals, nested block comments and raw strings
//! handled precisely — feeds the site-local rules (`analyzer`) and
//! the one function-body walker ([`items`]), which extracts `fn` items,
//! impl/trait context, call edges, lock-order edges, and the panic /
//! nondeterminism / blocking-I/O / allocation **sites**. A
//! deterministic resolver ([`graph`]) builds the workspace call graph,
//! and [`taint`] reports each site family under one rule id at every
//! depth: at the site where the file denies it, and at every call
//! whose callee chain reaches one (`panic-reach`, `det-taint`,
//! `lock-across-call`, `alloc-in-hot-loop`); [`locks`] finds cycles in
//! the lock-order edges.
//!
//! Violations can be suppressed in place with
//! `// mb-lint: allow(<rule>) -- <justification>` ([`suppress`]);
//! suppressions are themselves linted for a non-empty justification,
//! and for the taint families an allow is also a propagation boundary.
//! Any finding fails the run (exit 1), so a finding is either fixed or
//! suppressed with its justification.
//! `--explain <rule>` ([`explain`]) prints each rule's contract and
//! suppression form.
//!
//! Run it as `cargo run -p mb-lint`, `metablink lint`, or in CI via
//! `scripts/ci.sh`. The crate is deliberately zero-dependency: the
//! linter must stay buildable even when everything it checks is not.

#![warn(missing_docs)]

pub(crate) mod analyzer;
pub mod cli;
pub mod explain;
pub mod findings;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod suppress;
pub mod taint;
pub mod workspace;

pub use analyzer::RuleSet;
pub use findings::{Finding, RULE_IDS};
pub use workspace::lint_sources;
