//! Always-on runtime observability for the parallel execution layer.
//!
//! The paper's §7 diagnosis of the Pentium Pro results ("tens of thousands
//! of cycles" per `CreateThread`) was only possible because the authors
//! could *measure* where region time went. This module gives the host
//! runtime the same visibility: every parallel region accumulates counters
//! into a process-wide set of relaxed atomics, and callers diff
//! [`snapshot`]s around a phase to see what its regions did. Timings are
//! not kept here: the repo benchmark (`benchmark/`) times each layer.
//!
//! # The stats schema
//!
//! [`StatsSnapshot`] is always on — relaxed `fetch_add`s, a handful per
//! *region* or per *batch claim*, never per iteration:
//! * `regions`, `nested_regions` — how often the pool ran a region, and
//!   how often it fell back to scoped threads;
//! * `tasks`, `batches`, `batch_items` — loop iterations entering
//!   `ParFor`, and how coarsely the dynamic schedule claimed them
//!   ([`StatsSnapshot::mean_batch_items`]);
//! * `parks` — waits on the pool's condition variable, counted where they
//!   happen. A worker handed its next region inside the pool's watch
//!   window never parks: back-to-back regions read few of them.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Process-wide accumulators. Relaxed is sufficient everywhere: each value
// is a statistic, and the region-exit handshake (a mutex) orders the
// interesting cross-thread flushes anyway.
static REGIONS: AtomicU64 = AtomicU64::new(0);
static NESTED_REGIONS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static BATCH_ITEMS: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of every accumulator. Subtract two snapshots
/// (`after - before`) to get the activity of the phase between them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Parallel regions opened (pooled and nested-fallback).
    pub regions: u64,
    /// Regions that took the nested scoped-thread fallback.
    pub nested_regions: u64,
    /// Always 0: `benchmark/src/layers.rs` still reads it; the next
    /// `benchmark` PR may drop it.
    pub serial_cutoff_regions: u64,
    /// Loop iterations dispatched through `ParFor`/`par_map`.
    pub tasks: u64,
    /// Non-empty batches drawn from `WorkQueue::next_batch`.
    pub batches: u64,
    /// Iterations claimed across those batches.
    pub batch_items: u64,
    /// Waits on the pool's condition variable, counted by the worker that
    /// is about to make one.
    pub parks: u64,
    /// Always 0: `benchmark/src/layers.rs` still reads it; the next
    /// `benchmark` PR may drop it.
    pub steals: u64,
    /// Always 0: `benchmark/src/layers.rs` still reads it; the next
    /// `benchmark` PR may drop it.
    pub steal_fails: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;
    /// Saturating per-field difference: `after - before` across a phase.
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            regions: self.regions.saturating_sub(rhs.regions),
            nested_regions: self.nested_regions.saturating_sub(rhs.nested_regions),
            serial_cutoff_regions: 0,
            tasks: self.tasks.saturating_sub(rhs.tasks),
            batches: self.batches.saturating_sub(rhs.batches),
            batch_items: self.batch_items.saturating_sub(rhs.batch_items),
            parks: self.parks.saturating_sub(rhs.parks),
            steals: 0,
            steal_fails: 0,
        }
    }
}

impl StatsSnapshot {
    /// Mean items per drawn batch (0 when no batches were drawn).
    pub fn mean_batch_items(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_items as f64 / self.batches as f64
        }
    }
}

/// Read every accumulator. Cheap (a dozen relaxed loads); values from
/// concurrently running regions may be mid-flush, which for statistics is
/// acceptable by construction.
pub fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        regions: REGIONS.load(Relaxed),
        nested_regions: NESTED_REGIONS.load(Relaxed),
        serial_cutoff_regions: 0,
        tasks: TASKS.load(Relaxed),
        batches: BATCHES.load(Relaxed),
        batch_items: BATCH_ITEMS.load(Relaxed),
        parks: PARKS.load(Relaxed),
        steals: 0,
        steal_fails: 0,
    }
}

/// One pooled region ran to completion; flushed by the caller, so workers
/// pay nothing per region on the always-on tier.
pub(crate) fn record_pooled_region() {
    REGIONS.fetch_add(1, Relaxed);
}

/// A worker is about to wait on the pool's condition variable.
pub(crate) fn record_park() {
    PARKS.fetch_add(1, Relaxed);
}

/// A region took the nested scoped-thread fallback.
pub(crate) fn record_nested_region() {
    REGIONS.fetch_add(1, Relaxed);
    NESTED_REGIONS.fetch_add(1, Relaxed);
}

/// `n` loop iterations entered a `ParFor` dispatch.
pub(crate) fn record_tasks(n: usize) {
    TASKS.fetch_add(n as u64, Relaxed);
}

/// A `WorkQueue::next_batch` call claimed `items` iterations.
pub(crate) fn record_batch(items: usize) {
    BATCHES.fetch_add(1, Relaxed);
    BATCH_ITEMS.fetch_add(items as u64, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_per_field_and_saturating() {
        let a = StatsSnapshot {
            regions: 5,
            tasks: 100,
            ..Default::default()
        };
        let b = StatsSnapshot {
            regions: 7,
            tasks: 90, // "before" larger than "after" must not wrap
            parks: 42,
            ..Default::default()
        };
        let d = b - a;
        assert_eq!(d.regions, 2);
        assert_eq!(d.tasks, 0);
        assert_eq!(d.parks, 42);
    }

    #[test]
    fn counters_are_monotonic_across_a_region() {
        let before = snapshot();
        crate::ThreadPool::global().run_width(2, |_| {});
        let after = snapshot();
        let d = after - before;
        assert!(d.regions >= 1, "a region must be counted");
    }

    #[test]
    fn mean_batch_items_handles_zero_batches() {
        assert_eq!(StatsSnapshot::default().mean_batch_items(), 0.0);
        let s = StatsSnapshot {
            batches: 4,
            batch_items: 10,
            ..Default::default()
        };
        assert_eq!(s.mean_batch_items(), 2.5);
    }
}
