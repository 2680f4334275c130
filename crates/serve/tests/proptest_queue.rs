//! Property tests for [`BatchQueue`]. Single-threaded, the queue is
//! checked against a `VecDeque` reference model — the drain involves no
//! clock, so any interleaving of push / drain / close has exactly one
//! right answer. Under concurrent push, shed, and shutdown the shedding
//! drain must partition work exactly: every accepted item is either
//! answered (drained into a batch) or shed, never both and never
//! neither.

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_serve::queue::{BatchQueue, PushError};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Drain the queue to exhaustion with a deterministic predicate,
/// returning (answered ids, shed ids) in drain order.
fn drain_all(queue: &BatchQueue<u64>, max_batch: usize, shed_mod: u64) -> (Vec<u64>, Vec<u64>) {
    let mut answered = Vec::new();
    let mut shed = Vec::new();
    loop {
        let drained = queue.pop_batch_shed(max_batch, |id| shed_mod > 1 && id % shed_mod == 0);
        if drained.is_exit() {
            return (answered, shed);
        }
        answered.extend(drained.batch);
        shed.extend(drained.shed);
    }
}

mb_check::check! {
    #![config(cases = 48)]

    /// Concurrent pushers + a shedding drainer + shutdown: each pushed
    /// id lands in exactly one of {answered, shed, rejected-at-push}.
    fn partition_is_exact_under_concurrency(
        items in gen::usize_in(1..120),
        capacity in gen::usize_in(1..16),
        max_batch in gen::usize_in(1..8),
        shed_mod in gen::u32_in(0..5),
    ) {
        let shed_mod = shed_mod as u64;
        let queue = Arc::new(BatchQueue::new(capacity));
        let (accepted, rejected, answered, shed) = std::thread::scope(|scope| {
            let drainer = {
                let queue = Arc::clone(&queue);
                scope.spawn(move || drain_all(&queue, max_batch, shed_mod))
            };
            let (mut accepted, mut rejected) = (Vec::new(), Vec::new());
            for id in 0..items as u64 {
                match queue.try_push(id) {
                    Ok(()) => accepted.push(id),
                    Err(PushError::Full(id)) => rejected.push(id),
                    Err(PushError::Closed(_)) => unreachable!("nobody closed yet"),
                }
            }
            queue.close();
            let (answered, shed) = drainer.join().expect("drainer");
            (accepted, rejected, answered, shed)
        });

        let answered_set: BTreeSet<u64> = answered.iter().copied().collect();
        let shed_set: BTreeSet<u64> = shed.iter().copied().collect();
        prop_assert_eq!(answered_set.len(), answered.len(), "an id was answered twice");
        prop_assert_eq!(shed_set.len(), shed.len(), "an id was shed twice");
        prop_assert!(
            answered_set.is_disjoint(&shed_set),
            "ids both answered and shed: {:?}",
            answered_set.intersection(&shed_set).collect::<Vec<_>>()
        );
        let mut drained: BTreeSet<u64> = answered_set.union(&shed_set).copied().collect();
        for id in &rejected {
            prop_assert!(!drained.contains(id), "rejected id {id} was also drained");
            drained.insert(*id);
        }
        let all: BTreeSet<u64> = (0..items as u64).collect();
        prop_assert_eq!(drained, all, "every pushed id is accounted for exactly once");
        prop_assert_eq!(accepted.len() + rejected.len(), items);
    }

    /// Any single-threaded interleaving of `try_push`, `pop_batch_shed`
    /// and `close` equals a `VecDeque` reference: FIFO order; a drain
    /// returns the first ≤ `max_batch` unshed items present at the call
    /// plus every shed item ahead of the last one taken; each popped
    /// item is offered to the predicate exactly once; the exit signal
    /// appears only when closed and empty. Ops are `(kind, max_batch)`:
    /// kind 0–8 pushes the next id, 9–14 drains, 15 closes. A drain of
    /// an open, empty queue would block forever and is skipped.
    fn drain_matches_a_vecdeque_reference(
        ops in gen::vec_of((gen::u32_in(0..16), gen::usize_in(1..6)), 1..80),
        capacity in gen::usize_in(1..12),
        shed_mod in gen::u32_in(0..5),
    ) {
        let shed_mod = shed_mod as u64;
        let sheds = |id: u64| shed_mod > 1 && id.is_multiple_of(shed_mod);
        let queue = BatchQueue::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut closed = false;
        let mut next_id = 0u64;
        for (kind, max_batch) in ops {
            match kind {
                0..=8 => {
                    let id = next_id;
                    next_id += 1;
                    let want = if closed {
                        Err(PushError::Closed(id))
                    } else if model.len() >= capacity {
                        Err(PushError::Full(id))
                    } else {
                        model.push_back(id);
                        Ok(())
                    };
                    prop_assert_eq!(queue.try_push(id), want);
                }
                9..=14 => {
                    if model.is_empty() && !closed {
                        continue;
                    }
                    let (mut batch, mut shed, mut popped) = (Vec::new(), Vec::new(), Vec::new());
                    while batch.len() < max_batch {
                        let Some(id) = model.pop_front() else { break };
                        popped.push(id);
                        if sheds(id) {
                            shed.push(id)
                        } else {
                            batch.push(id)
                        }
                    }
                    let mut offered = Vec::new();
                    let drained = queue.pop_batch_shed(max_batch, |&id| {
                        offered.push(id);
                        sheds(id)
                    });
                    prop_assert_eq!(&offered, &popped, "each popped item is classified once");
                    prop_assert_eq!(drained.is_exit(), popped.is_empty(), "exit iff closed and empty");
                    prop_assert_eq!(drained.batch, batch);
                    prop_assert_eq!(drained.shed, shed);
                }
                _ => {
                    queue.close();
                    closed = true;
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_closed(), closed);
        }
    }

    /// Closing while a drainer blocks always unblocks it, and pushes
    /// after close are returned to the caller rather than dropped.
    fn close_unblocks_and_rejects_late_pushes(
        capacity in gen::usize_in(1..8),
        max_batch in gen::usize_in(1..8),
    ) {
        let queue = Arc::new(BatchQueue::new(capacity));
        let drainer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || drain_all(&queue, max_batch, 0))
        };
        queue.close();
        let (answered, shed) = drainer.join().expect("drainer unblocked by close");
        prop_assert!(answered.is_empty() && shed.is_empty());
        match queue.try_push(7) {
            Err(PushError::Closed(id)) => prop_assert_eq!(id, 7),
            other => prop_assert!(false, "push after close: {other:?}"),
        }
    }
}
