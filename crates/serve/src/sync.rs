//! Poison-tolerant lock helpers for the serving path.
//!
//! `Mutex::lock` returns `Err` only when another thread panicked while
//! holding the guard. The serving path is panic-free by contract —
//! mb-lint denies `unwrap`/`expect`/`panic!`/indexing throughout
//! `crates/serve` — so poisoning cannot originate here; it could only
//! leak in from test code or a future bug. Either way, aborting the
//! whole server (what `.expect("poisoned")` did) is the worst possible
//! response for availability: every protected structure in this crate
//! ([`crate::queue::BatchQueue`] state, the registry's current
//! generation) is valid after *any* interleaving of its mutations,
//! because each critical section performs single-field writes and
//! `VecDeque` operations that never leave the structure half-updated
//! at a panic point. Recovering the guard with [`std::sync::PoisonError::into_inner`]
//! is therefore sound, and it keeps serving.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard from a poisoned mutex.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait`, recovering the guard from a poisoned mutex.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn poisoned_mutex_recovers_with_state_intact() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        // Poison the mutex by panicking while holding the guard.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
    }
}
