//! # mb-par
//!
//! A deterministic, zero-dependency data-parallel runtime built on
//! scoped threads (DESIGN.md §11).
//!
//! ## The determinism contract
//!
//! Every entry point produces **bit-identical results for any worker
//! count**, which is what lets the rest of the workspace parallelise
//! hot paths without giving up the bit-identical resume/replay
//! guarantee the determinism lint family protects:
//!
//! - **Static partitioning.** Work is split by *index*, never by a
//!   work-stealing queue. Chunk boundaries depend only on the input
//!   length (and an explicit chunk size), never on the worker count or
//!   on runtime timing.
//! - **Ordered results.** Per-item and per-chunk results are written
//!   into their input slot, so the output order is the input order no
//!   matter which worker computed what.
//! - **Ordered reduction.** Nothing here reduces: a caller folds the
//!   index-ordered results serially, in index order, so floating-point
//!   sums associate identically at every thread count.
//! - **No ambient state.** The worker count is an explicit [`Threads`]
//!   value plumbed from configuration (CLI `--threads` / `MB_THREADS`,
//!   read only at the binary edge). Nothing here consults
//!   `std::env`, CPU counts, or clocks.
//!
//! ## Panics
//!
//! A panicking worker never deadlocks or poisons a pool: the infallible
//! entry points re-raise the first panic (by worker index) on the
//! calling thread after all workers have stopped; [`try_par_chunks`]
//! instead converts it into [`mb_common::Error::Worker`] so shard
//! failures surface as recoverable errors.

#![warn(missing_docs)]

use mb_common::{Error, Result};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// An explicit worker count for the data-parallel entry points.
///
/// Constructed from configuration at the binary edge and passed down —
/// never discovered from the environment inside library code, so the
/// mb-lint determinism family stays clean. `Threads(1)` (the default)
/// runs everything inline on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// A worker count of `n`, clamped to at least 1.
    pub fn new(n: usize) -> Threads {
        Threads(n.max(1))
    }

    /// The single-threaded (inline) configuration.
    pub fn single() -> Threads {
        Threads(1)
    }

    /// The configured worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.0
    }

    /// True if work runs inline on the calling thread.
    pub fn is_single(self) -> bool {
        self.0 == 1
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads(1)
    }
}

/// Render a panic payload as a message, preserving `&str` / `String`
/// payloads (the overwhelmingly common case from `panic!` / `assert!`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Shared core: compute `f(0..n)` into an index-ordered vector using a
/// static contiguous partition over at most `threads` workers. Returns
/// the first panic payload (lowest worker index) if any worker
/// panicked.
fn run_indexed<R, F>(threads: Threads, n: usize, f: &F) -> std::result::Result<Vec<R>, PanicPayload>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.get().min(n.max(1));
    if workers <= 1 {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(f).collect()));
    }
    // Contiguous slices of ceil(n / workers) indices per worker. The
    // partition affects only *which thread* computes a slot, never the
    // value written into it, so any worker count yields the same vector.
    let per = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let first_panic = thread::scope(|s| {
        let handles: Vec<_> = out
            .chunks_mut(per)
            .enumerate()
            .map(|(wi, slots)| {
                let start = wi * per;
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        for (off, slot) in slots.iter_mut().enumerate() {
                            *slot = Some(f(start + off));
                        }
                    }))
                })
            })
            .collect();
        let mut first: Option<PanicPayload> = None;
        for h in handles {
            let payload = match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(p)) => Some(p),
                Err(p) => Some(p),
            };
            if first.is_none() {
                first = payload;
            }
        }
        first
    });
    match first_panic {
        Some(p) => Err(p),
        None => Ok(out
            .into_iter()
            .map(|slot| slot.expect("mb-par: worker finished without filling its slot"))
            .collect()),
    }
}

/// Map `f` over `0..n` in parallel; results come back in index order.
///
/// Bit-identical for any [`Threads`] value. A worker panic is re-raised
/// on the calling thread after every worker has stopped.
pub fn par_map_range<R, F>(threads: Threads, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Panic transparency is this API's contract: a worker panic
    // re-raises on the caller with its own payload, and with no worker
    // panic every slot is filled, so the unfilled-slot expect inside
    // run_indexed is unreachable.
    // mb-lint: allow(panic-reach) -- panic transparency is the documented contract here
    match run_indexed(threads, n, &f) {
        Ok(v) => v,
        Err(p) => resume_unwind(p),
    }
}

/// Map `f` over the items of a slice in parallel; results come back in
/// input order. See [`par_map_range`] for the determinism and panic
/// contract.
pub fn par_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(threads, items.len(), |i| f(i, &items[i]))
}

/// The number of `chunk`-sized pieces a `len`-item input splits into —
/// a pure function of the data size, never of the worker count.
pub(crate) fn chunk_count(len: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "mb-par: chunk size must be positive");
    len.div_ceil(chunk)
}

/// Map `f` over fixed-size chunks of a slice in parallel. `f` receives
/// the chunk index and the chunk (the final chunk may be short);
/// results come back in chunk order.
///
/// The chunk size is an explicit parameter precisely so partitioning is
/// a function of the data, not of the worker count: callers pick a
/// granularity once and results are bit-identical at any thread count.
pub fn par_chunks<T, R, F>(threads: Threads, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let n = chunk_count(items.len(), chunk);
    par_map_range(threads, n, |ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(items.len());
        f(ci, &items[lo..hi])
    })
}

/// Map `f` over fixed-size consecutive index ranges of `0..n` in
/// parallel. `f` receives the chunk index and the `lo..hi` range (the
/// final range may be short); results come back in range order.
///
/// This is [`par_chunks`] for callers that index into several parallel
/// arrays (e.g. a quantized table plus its per-row scales) rather than
/// one slice. As there, partitioning is a function of `n` and `chunk`
/// alone, so results are bit-identical at any thread count.
pub fn par_chunk_ranges<R, F>(threads: Threads, n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let pieces = chunk_count(n, chunk);
    par_map_range(threads, pieces, |ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(n);
        f(ci, lo..hi)
    })
}

/// [`par_chunks`] with panic containment: a panicking chunk surfaces as
/// [`mb_common::Error::Worker`] at the fork point instead of
/// re-panicking on the calling thread.
pub fn try_par_chunks<T, R, F>(threads: Threads, items: &[T], chunk: usize, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let n = chunk_count(items.len(), chunk);
    // mb-lint: allow(panic-reach) -- worker panics become a typed Error::Worker below
    match run_indexed(threads, n, &|ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(items.len());
        f(ci, &items[lo..hi])
    }) {
        Ok(v) => Ok(v),
        Err(p) => Err(Error::Worker(panic_message(p.as_ref()))),
    }
}

/// Run `f` over disjoint fixed-size mutable chunks of `data` in
/// parallel. `f` receives the chunk index and the chunk; each chunk is
/// visited exactly once.
///
/// Workers own contiguous *groups* of chunks, so the mutable split is
/// expressible entirely in safe code; as with [`par_chunks`], which
/// worker touches a chunk never affects what is written into it.
pub fn par_chunks_mut<T, F>(threads: Threads, data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let nchunks = chunk_count(data.len(), chunk);
    let workers = threads.get().min(nchunks.max(1));
    if workers <= 1 {
        for (ci, c) in data.chunks_mut(chunk).enumerate() {
            f(ci, c);
        }
        return;
    }
    let per = nchunks.div_ceil(workers);
    let f = &f;
    let first_panic = thread::scope(|s| {
        let handles: Vec<_> = data
            .chunks_mut(per * chunk)
            .enumerate()
            .map(|(wi, group)| {
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        for (off, c) in group.chunks_mut(chunk).enumerate() {
                            f(wi * per + off, c);
                        }
                    }))
                })
            })
            .collect();
        let mut first: Option<PanicPayload> = None;
        for h in handles {
            let payload = match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(p)) => Some(p),
                Err(p) => Some(p),
            };
            if first.is_none() {
                first = payload;
            }
        }
        first
    });
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for t in THREAD_COUNTS {
            let got = par_map(Threads::new(t), &items, |_, &x| u64::from(x) * 3 + 1);
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn map_range_handles_empty_and_tiny() {
        for t in THREAD_COUNTS {
            assert_eq!(par_map_range(Threads::new(t), 0, |i| i), Vec::<usize>::new());
            assert_eq!(par_map_range(Threads::new(t), 1, |i| i * 2), vec![0]);
        }
    }

    #[test]
    fn chunk_ranges_partition_identically_at_every_thread_count() {
        let expect: Vec<(usize, usize, usize)> =
            vec![(0, 0, 7), (1, 7, 14), (2, 14, 21), (3, 21, 23)];
        for t in THREAD_COUNTS {
            let got = par_chunk_ranges(Threads::new(t), 23, 7, |ci, r| (ci, r.start, r.end));
            assert_eq!(got, expect, "threads={t}");
        }
        for t in THREAD_COUNTS {
            assert!(par_chunk_ranges(Threads::new(t), 0, 8, |_, r| r.len()).is_empty());
        }
    }

    #[test]
    fn chunks_sees_every_chunk_once_in_order() {
        let items: Vec<usize> = (0..100).collect();
        for t in THREAD_COUNTS {
            let got = par_chunks(Threads::new(t), &items, 7, |ci, c| (ci, c.to_vec()));
            assert_eq!(got.len(), 15);
            for (ci, (gci, c)) in got.iter().enumerate() {
                assert_eq!(ci, *gci);
                let lo = ci * 7;
                let hi = (lo + 7).min(100);
                assert_eq!(c, &items[lo..hi]);
            }
        }
    }

    #[test]
    fn chunks_mut_writes_every_slot_exactly_once() {
        for t in THREAD_COUNTS {
            let mut data = vec![0u32; 101];
            par_chunks_mut(Threads::new(t), &mut data, 8, |ci, c| {
                for x in c.iter_mut() {
                    *x += 1 + ci as u32;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, 1 + (i / 8) as u32, "slot {i} threads={t}");
            }
        }
    }

    #[test]
    fn try_chunks_converts_worker_panic_into_error() {
        let items: Vec<usize> = (0..50).collect();
        let err = try_par_chunks(Threads::new(4), &items, 1, |_, c| {
            assert!(c[0] != 33, "shard poisoned at {}", c[0]);
            c[0] * 2
        })
        .unwrap_err();
        match err {
            Error::Worker(msg) => assert!(msg.contains("shard poisoned at 33"), "{msg}"),
            other => panic!("expected Error::Worker, got {other:?}"),
        }
    }

    #[test]
    fn try_chunks_ok_path_matches_serial() {
        let items: Vec<usize> = (0..50).collect();
        let got = try_par_chunks(Threads::new(3), &items, 1, |_, c| c[0] * 2).unwrap();
        let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn infallible_map_repropagates_panic() {
        let items: Vec<usize> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(Threads::new(2), &items, |_, &x| {
                assert!(x != 7, "boom {x}");
                x
            })
        });
        let payload = caught.unwrap_err();
        assert!(panic_message(payload.as_ref()).contains("boom 7"));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1, 2, 3];
        let got = par_map(Threads::new(64), &items, |_, &x| x * x);
        assert_eq!(got, vec![1, 4, 9]);
    }
}
