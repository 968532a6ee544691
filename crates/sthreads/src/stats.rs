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
//! * `regions`, `nested_regions`, `serial_cutoff_regions` — how often the
//!   pool ran a region, fell back to scoped threads, or kept a region
//!   inline because the work could not pay the dispatch floor;
//! * `tasks`, `batches`, `batch_items` — loop iterations entering
//!   `ParFor`, and how coarsely the dynamic schedule claimed them
//!   ([`StatsSnapshot::mean_batch_items`]);
//! * `parks` — waits on the pool's condition variable, counted where they
//!   happen. A worker handed its next region inside the pool's watch
//!   window never parks: back-to-back regions read few of them.
//!
//! The module also owns the *measured dispatch floor* ([`dispatch_floor_ns`])
//! that [`ParFor`](crate::ParFor)'s small-region sequential cutoff compares
//! against: the cost of waking a *parked* pool — what a caller arriving at
//! an arbitrary time meets — is measured on this host at first use, never
//! hard-coded, so the cutoff adapts to the machine it runs on.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

// Process-wide accumulators. Relaxed is sufficient everywhere: each value
// is a statistic, and the region-exit handshake (a mutex) orders the
// interesting cross-thread flushes anyway.
static REGIONS: AtomicU64 = AtomicU64::new(0);
static NESTED_REGIONS: AtomicU64 = AtomicU64::new(0);
static SERIAL_CUTOFF_REGIONS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static BATCH_ITEMS: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of every accumulator. Subtract two snapshots
/// (`after - before`) to get the activity of the phase between them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Parallel regions opened (pooled, nested-fallback, and cutoff).
    pub regions: u64,
    /// Regions that took the nested scoped-thread fallback.
    pub nested_regions: u64,
    /// Regions the measured sequential cutoff ran inline instead of
    /// dispatching (see [`dispatch_floor_ns`]).
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
            serial_cutoff_regions: self
                .serial_cutoff_regions
                .saturating_sub(rhs.serial_cutoff_regions),
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
        serial_cutoff_regions: SERIAL_CUTOFF_REGIONS.load(Relaxed),
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

/// The sequential cutoff ran a would-be region inline.
pub(crate) fn record_serial_cutoff() {
    REGIONS.fetch_add(1, Relaxed);
    SERIAL_CUTOFF_REGIONS.fetch_add(1, Relaxed);
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

/// Cached `available_parallelism` — the most threads that can make
/// wall-clock progress simultaneously on this host.
pub(crate) fn host_parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The measured cost of opening and closing an empty region on the global
/// pool *with its workers parked*, in nanoseconds — the "dispatch floor" a
/// parallel region must amortize before it can pay for itself. Callers of
/// the cutoff arrive at arbitrary times and do meet a parked pool; the
/// handoff a region right behind another gets is not what they would pay.
/// Measured once per process and cached: the minimum of eight regions
/// (noise inflates rather than deflates the saving estimate it feeds),
/// each counted only if its workers had parked since the last one (the
/// `parks` counter says so) and no other region ran meanwhile.
pub fn dispatch_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let pool = crate::ThreadPool::global();
        let width = pool.n_threads().clamp(2, 4);
        pool.warm(width);
        let (mut parked_best, mut any_best) = (None, u64::MAX);
        for _ in 0..8 {
            let (regions, parks) = (REGIONS.load(Relaxed), PARKS.load(Relaxed));
            // Two windows for the workers' watch to close and their parks
            // to be counted, a third for those waits to have become sleeps.
            let idle = Instant::now();
            while idle.elapsed() < 2 * crate::pool::HANDOFF_WINDOW {
                std::thread::yield_now();
            }
            let parked = PARKS.load(Relaxed) - parks >= width as u64 - 1;
            while idle.elapsed() < 3 * crate::pool::HANDOFF_WINDOW {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            pool.run_width(width, |_| {});
            let ns = t0.elapsed().as_nanos() as u64;
            any_best = any_best.min(ns);
            if parked && REGIONS.load(Relaxed) == regions + 1 {
                parked_best = Some(parked_best.map_or(ns, |b: u64| b.min(ns)));
            }
        }
        // Another thread kept the pool busy throughout: the hot figure is
        // the only measurement there is.
        parked_best.unwrap_or(any_best).max(1)
    })
}

/// Safety margin over the raw empty-region floor: real regions also pay
/// per-task dispatch, cache migration, and (on loaded hosts) scheduling
/// churn that the empty-region measurement cannot see. Dimensionless.
const CUTOFF_MARGIN: u64 = 4;

/// Decide whether a region whose probed per-task cost is `per_task_ns`
/// over `n_rest` further iterations should run inline on the caller.
///
/// Parallel execution is worth opening a region only when the best-case
/// wall-clock saving — `total × (1 − 1/w)` with `w` capped by the host's
/// real parallelism — exceeds the measured dispatch floor with margin. On
/// a single-core host `w == 1`: no saving is possible and every region
/// serializes, which is exactly the honest answer (the table-generation
/// "0.63x speedup" regression was this case paying dispatch for nothing).
pub(crate) fn should_serialize(per_task_ns: u64, n_rest: usize, n_threads: usize) -> bool {
    let w = n_threads.min(host_parallelism()) as u64;
    if w <= 1 {
        return true;
    }
    let total = per_task_ns.saturating_mul(n_rest as u64);
    let saving = total - total / w;
    saving < CUTOFF_MARGIN * dispatch_floor_ns()
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
        crate::scope_threads(2, |_| {});
        let after = snapshot();
        let d = after - before;
        assert!(d.regions >= 1, "a region must be counted");
    }

    #[test]
    fn dispatch_floor_is_positive_and_stable() {
        let a = dispatch_floor_ns();
        let b = dispatch_floor_ns();
        assert!(a > 0);
        assert_eq!(a, b, "the floor is measured once and cached");
    }

    #[test]
    fn single_core_equivalent_width_always_serializes() {
        // w == 1 (explicitly single-threaded) can never save wall-clock.
        assert!(should_serialize(1_000_000, 1000, 1));
    }

    #[test]
    fn large_work_parallelizes_when_width_allows() {
        if host_parallelism() < 2 {
            return; // on a 1-CPU host every region honestly serializes
        }
        // 1 ms × 1000 tasks dwarfs any plausible dispatch floor.
        assert!(!should_serialize(1_000_000, 1000, 4));
    }

    #[test]
    fn tiny_work_serializes_even_on_wide_hosts() {
        // 10 ns × 8 tasks is far below any measurable region cost.
        assert!(should_serialize(10, 8, 4));
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
