//! Bounded MPSC queue with work-conserving batch draining.
//!
//! Acceptor threads [`BatchQueue::try_push`] jobs; a full queue rejects
//! immediately (the server turns that into `503 Service Unavailable`)
//! instead of buffering without bound. Worker threads call
//! [`BatchQueue::pop_batch_shed`], which blocks only while the queue is
//! empty and then takes what is already queued, up to `max_batch`. A
//! worker never waits while a job is queued: batches form from the
//! backlog that builds while the worker is busy, so batch size follows
//! load (idle server: batch 1, no added latency; saturated server:
//! `max_batch` per fused forward pass) and no clock is involved.

use crate::sync::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load now rather than queue
    /// unboundedly.
    Full(T),
    /// The queue was closed for shutdown; no new work is accepted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// One drained batch split by the shed predicate: `batch` is served,
/// `shed` gets fast rejections. Both empty only when the queue is
/// closed and fully drained (the worker exit signal).
#[derive(Debug)]
pub struct Drained<T> {
    /// Items to serve in one fused forward pass.
    pub batch: Vec<T>,
    /// Items whose deadline can no longer be met; reject immediately.
    pub shed: Vec<T>,
}

impl<T> Drained<T> {
    fn empty(max_batch: usize) -> Self {
        Drained { batch: Vec::with_capacity(max_batch), shed: Vec::new() }
    }

    /// True when the queue closed and drained: nothing to serve or shed.
    pub fn is_exit(&self) -> bool {
        self.batch.is_empty() && self.shed.is_empty()
    }
}

/// A bounded multi-producer queue drained in batches.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BatchQueue: capacity must be positive");
        BatchQueue {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue without blocking; a full or closed queue returns the
    /// item to the caller.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = lock_recover(&self.state);
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Drain the next batch: block until one item is queued (or the
    /// queue closes), then take the items already queued, oldest
    /// first, up to `max_batch`. Every item is first offered to `shed`
    /// — items it claims (deadline already unmeetable) land in
    /// [`Drained::shed`] instead of the batch and do **not** count
    /// toward `max_batch`. Each popped item is classified exactly once,
    /// so no item can be both shed and served.
    ///
    /// The drain holds nothing ([`Drained::is_exit`]) only when the
    /// queue is closed and fully drained — the worker-thread exit
    /// signal.
    pub fn pop_batch_shed(&self, max_batch: usize, mut shed: impl FnMut(&T) -> bool) -> Drained<T> {
        let max_batch = max_batch.max(1);
        let mut s = lock_recover(&self.state);
        while s.items.is_empty() {
            if s.closed {
                // mb-lint: allow(alloc-in-hot-loop) -- shutdown return; with_capacity(0) does not allocate
                return Drained::empty(0);
            }
            s = wait_recover(&self.available, s);
        }
        let mut drained = Drained::empty(max_batch.min(s.items.len()));
        while drained.batch.len() < max_batch {
            match s.items.pop_front() {
                Some(item) if shed(&item) => drained.shed.push(item),
                Some(item) => drained.batch.push(item),
                None => break,
            }
        }
        drained
    }

    /// Close the queue: future pushes fail, waiting workers wake, and
    /// already-queued items still drain (graceful shutdown).
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.available.notify_all();
    }

    /// Whether [`BatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Items currently queued (the `/metrics` queue-depth gauge).
    pub fn len(&self) -> usize {
        lock_recover(&self.state).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = BatchQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let q = BatchQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch_shed(4, |_| false).batch, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch_shed(100, |_| false).batch, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BatchQueue::new(8);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop_batch_shed(8, |_| false).batch, vec![1]);
        assert!(q.pop_batch_shed(8, |_| false).is_exit());
    }

    #[test]
    fn closing_wakes_a_blocked_worker() {
        let q = Arc::new(BatchQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch_shed(4, |_| false));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_exit());
    }

    #[test]
    fn shed_items_do_not_count_toward_the_batch() {
        let q = BatchQueue::new(16);
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        // Shed the evens; the batch should still fill to 4 odds.
        let d = q.pop_batch_shed(4, |i| i % 2 == 0);
        assert_eq!(d.batch, vec![1, 3, 5, 7]);
        assert_eq!(d.shed, vec![0, 2, 4, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn all_shed_drain_is_not_the_exit_signal() {
        let q = BatchQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let d = q.pop_batch_shed(8, |_| true);
        assert!(d.batch.is_empty());
        assert_eq!(d.shed, vec![1, 2]);
        assert!(!d.is_exit(), "shed-only drains are not the exit signal");
    }

    #[test]
    fn closed_and_drained_is_the_exit_signal() {
        let q = BatchQueue::<u32>::new(4);
        q.close();
        let d = q.pop_batch_shed(4, |_| true);
        assert!(d.is_exit());
    }
}
