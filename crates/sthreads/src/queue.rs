//! Self-scheduling work queue ("next unprocessed threat").
//!
//! Program 4 of the paper balances irregular per-threat work by having each
//! thread repeatedly claim the next unprocessed threat. On the Tera MTA this
//! is a one-cycle `int_fetch_add` on a synchronization variable; on the
//! conventional platforms it is an atomic increment. [`WorkQueue`] is that
//! counter.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An atomic index dispenser over a half-open range.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    end: usize,
}

impl WorkQueue {
    /// Create a queue dispensing each index of `range` exactly once.
    pub fn new(range: Range<usize>) -> Self {
        Self {
            next: AtomicUsize::new(range.start),
            end: range.end,
        }
    }

    /// Claim the next up-to-`k` unprocessed indices in one atomic
    /// operation, returning the claimed sub-range, or `None` when the
    /// range is exhausted. Every index is dispensed to exactly one caller
    /// across any mix of batch sizes; the final batch is truncated at the
    /// range end.
    ///
    /// Batching is the self-scheduling overhead lever: one `fetch_add`
    /// claims `k` iterations, so the shared counter's cache line is
    /// touched once per batch instead of once per iteration. Panics if
    /// `k == 0`.
    pub fn next_batch(&self, k: usize) -> Option<std::ops::Range<usize>> {
        assert!(k > 0, "WorkQueue::next_batch: batch size must be > 0");
        // fetch_add then range-check: overshoot past `end` is harmless
        // because overshooting claims map to None and each caller stops
        // after its first None. Relaxed suffices — the queue only hands
        // out indices; the caller's own work provides any data ordering
        // it needs.
        let i = self.next.fetch_add(k, Ordering::Relaxed);
        let batch = (i < self.end).then(|| i..self.end.min(i.saturating_add(k)));
        if let Some(b) = &batch {
            crate::stats::record_batch(b.len());
        }
        batch
    }

    /// How many indices are still unclaimed (saturating at zero once
    /// claimants have overshot the end).
    pub fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn empty_range_dispenses_nothing() {
        let q = WorkQueue::new(5..5);
        assert!(q.next_batch(1).is_none());
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn next_batch_partitions_the_range() {
        let q = WorkQueue::new(2..12);
        assert_eq!(q.next_batch(4), Some(2..6));
        assert_eq!(q.remaining(), 6);
        assert_eq!(q.next_batch(4), Some(6..10));
        // Final batch truncates at the range end.
        assert_eq!(q.next_batch(4), Some(10..12));
        assert_eq!(q.next_batch(4), None);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be > 0")]
    fn next_batch_rejects_zero() {
        WorkQueue::new(0..4).next_batch(0);
    }

    #[test]
    fn concurrent_mixed_batches_are_disjoint_and_complete() {
        let q = WorkQueue::new(0..10_000);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            let (q, seen) = (&q, &seen);
            for w in 0..8usize {
                let k = [1, 3, 7, 16][w % 4];
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(r) = q.next_batch(k) {
                        local.extend(r);
                    }
                    let mut set = seen.lock().unwrap();
                    for i in local {
                        assert!(set.insert(i), "index {i} claimed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 10_000);
    }
}
