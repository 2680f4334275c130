//! # mb-check
//!
//! A small, dependency-free property-testing framework on top of
//! [`mb_common::Rng`], replacing `proptest` so the workspace builds
//! with no network access.
//!
//! Each property runs a fixed number of randomized cases. Every case
//! has its own printable 64-bit seed; on failure the input is greedily
//! shrunk to a local minimum and the report shows both the original and
//! the minimal counterexample plus the exact seed, so
//! `MB_CHECK_SEED=0x... cargo test <name>` replays just that case.
//!
//! ```
//! mb_check::check! {
//!     #![config(cases = 64)]
//!     fn addition_commutes(a in mb_check::gen::u64_in(0..1000), b in mb_check::gen::u64_in(0..1000)) {
//!         mb_check::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Environment knobs:
//! - `MB_CHECK_SEED=<u64 or 0xHEX>` — replay a single case by seed.
//! - `MB_CHECK_CASES=<n>` — override the per-property case count.

pub mod gen;

pub use gen::Gen;
use mb_common::Rng;

/// Per-property configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of randomized cases to run.
    pub cases: u64,
    /// Base seed. `0` (the default) derives a stable seed from the
    /// property name, so runs are deterministic but differ per property.
    pub seed: u64,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_steps: u64,
}

impl Config {
    /// A configuration running `cases` randomized cases.
    pub fn new(cases: u64) -> Self {
        Config { cases, seed: 0, max_shrink_steps: 4096 }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::new(64)
    }
}

/// The result of running a property (see [`run`]).
#[derive(Debug, Clone)]
pub enum Outcome<T> {
    /// All cases passed.
    Passed {
        /// Number of cases executed.
        cases: u64,
    },
    /// A case failed; the input was shrunk to a local minimum.
    Failed {
        /// Index of the failing case (0-based).
        case: u64,
        /// The case seed — replayable via `MB_CHECK_SEED`.
        seed: u64,
        /// The originally generated failing input.
        original: T,
        /// The shrunk (locally minimal) failing input.
        minimal: T,
        /// Number of shrink attempts that produced `minimal`.
        shrink_steps: u64,
        /// The failure message of the minimal counterexample.
        error: String,
    },
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derive the seed of case `i` from the property's base seed.
fn case_seed(base: u64, i: u64) -> u64 {
    // SplitMix64-style mix so consecutive case indices decorrelate.
    let mut z = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Run `prop` once, converting panics into failure messages so that
/// "never panics" properties shrink like any other.
fn run_prop<T, F>(prop: &F, value: &T) -> Result<(), String>
where
    F: Fn(&T) -> Result<(), String>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic with non-string payload".to_string()
            };
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Run a property and return the [`Outcome`] instead of panicking.
///
/// This is the engine behind [`check!`]; tests of the framework
/// itself use it to inspect shrinking behaviour.
pub fn run<G, F>(cfg: &Config, name: &str, generator: &G, prop: F) -> Outcome<G::Value>
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let cases =
        std::env::var("MB_CHECK_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(cfg.cases);
    if let Some(seed) = std::env::var("MB_CHECK_SEED").ok().and_then(|v| parse_seed(&v)) {
        return run_case(cfg, generator, &prop, 0, seed);
    }
    let base = if cfg.seed != 0 { cfg.seed } else { fnv1a(name) };
    for i in 0..cases {
        let outcome = run_case(cfg, generator, &prop, i, case_seed(base, i));
        if matches!(outcome, Outcome::Failed { .. }) {
            return outcome;
        }
    }
    Outcome::Passed { cases }
}

fn run_case<G, F>(cfg: &Config, generator: &G, prop: &F, case: u64, seed: u64) -> Outcome<G::Value>
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let mut rng = Rng::seed_from_u64(seed);
    let original = generator.generate(&mut rng);
    let error = match run_prop(prop, &original) {
        Ok(()) => return Outcome::Passed { cases: 1 },
        Err(e) => e,
    };
    // Greedy shrink: take the first failing candidate, repeat until no
    // candidate fails (a local minimum) or the step budget runs out.
    // Panic messages from candidate runs are suppressed meanwhile.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut minimal = original.clone();
    let mut minimal_error = error;
    let mut steps = 0u64;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in generator.shrink(&minimal) {
            steps += 1;
            if let Err(e) = run_prop(prop, &cand) {
                minimal = cand;
                minimal_error = e;
                continue 'outer;
            }
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
        }
        break;
    }
    std::panic::set_hook(quiet);
    Outcome::Failed { case, seed, original, minimal, shrink_steps: steps, error: minimal_error }
}

fn truncate_debug<T: std::fmt::Debug>(v: &T) -> String {
    let mut s = format!("{v:?}");
    const LIMIT: usize = 2000;
    if s.chars().count() > LIMIT {
        s = s.chars().take(LIMIT).collect();
        s.push_str(" …(truncated)");
    }
    s
}

/// Run a named property, panicking with a reproducible report on failure.
///
/// `pub` only because the exported [`check!`] macro expands to
/// `$crate::for_all_named`; write properties with `check!` instead.
#[doc(hidden)]
pub fn for_all_named<G, F>(cfg: &Config, name: &str, generator: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    match run(cfg, name, generator, prop) {
        Outcome::Passed { .. } => {}
        Outcome::Failed { case, seed, original, minimal, shrink_steps, error } => {
            panic!(
                "[mb-check] property '{name}' failed at case {case} (seed {seed:#018X})\n\
                 minimal counterexample (after {shrink_steps} shrink steps):\n  {}\n\
                 error: {error}\n\
                 original input:\n  {}\n\
                 replay this case with: MB_CHECK_SEED={seed:#X} cargo test {short}",
                truncate_debug(&minimal),
                truncate_debug(&original),
                short = name.rsplit("::").next().unwrap_or(name),
            );
        }
    }
}

/// Assert a condition inside a property, recording the expression (and
/// an optional formatted message) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Assert equality inside a property, showing both values on failure.
///
/// Operands are taken by reference, so neither side is moved.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err(format!(
                "assertion failed: {} == {}\n    left:  {:?}\n    right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err(format!(
                "assertion failed: {} == {} — {}\n    left:  {:?}\n    right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                __l,
                __r
            ));
        }
    }};
}

/// Define `#[test]` property functions, proptest-style.
///
/// ```ignore
/// mb_check::check! {
///     #![config(cases = 128)]
///     fn my_property(x in gen::u64_any(), xs in gen::vec_of(gen::f64_in(0.0..1.0), 0..50)) {
///         prop_assert!(xs.len() < 50);
///     }
/// }
/// ```
#[macro_export]
macro_rules! check {
    ( #![config(cases = $cases:expr)] $($rest:tt)* ) => {
        $crate::__check_impl! { ($cases) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__check_impl! { (64) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __check_impl {
    ( ($cases:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat_param in $generator:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __cfg = $crate::Config::new($cases);
                let __gen = ( $( $generator, )+ );
                $crate::for_all_named(
                    &__cfg,
                    concat!(module_path!(), "::", stringify!($name)),
                    &__gen,
                    |__value| {
                        let ( $( $arg, )+ ) = ::std::clone::Clone::clone(__value);
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}
