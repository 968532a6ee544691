//! The `#pragma multithreaded` loop.
//!
//! Both manually parallelized benchmark programs in the paper are built on a
//! multithreaded for-loop:
//!
//! * **Program 2** (Threat Analysis) statically splits the iteration space
//!   into `num_chunks` contiguous chunks, one logical thread per chunk;
//! * **Program 4** (Terrain Masking) runs `num_threads` threads that
//!   *dynamically* claim iterations ("`threat = next unprocessed threat`")
//!   until the work runs out.
//!
//! [`multithreaded_for`] provides both schedules over a half-open index
//! range. The body receives the iteration index; with [`Schedule::Static`]
//! each worker walks its own contiguous chunk (good cache behaviour, the
//! conventional-SMP choice), and with [`Schedule::Dynamic`] workers pull
//! batches of indices from a shared atomic counter (good load balance for
//! irregular work such as variable-size threat regions). Dynamic is the
//! one production dispatcher: [`par_map`] and every host kernel that does
//! not need Program 2's chunk shape run on it.

use crate::pool::scope_threads;
use crate::queue::WorkQueue;
use crate::stats;
use parking_lot::Mutex;
use std::time::Instant;

/// Iteration-to-thread assignment policy for [`multithreaded_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous chunks, one per worker, computed with the paper's
    /// `(chunk*n)/num_chunks` blocking expression.
    Static,
    /// Workers repeatedly claim the next unprocessed index from a shared
    /// counter (self-scheduling), as in Program 4.
    Dynamic,
}

impl std::fmt::Display for Schedule {
    /// Lowercase schedule name (`static` / `dynamic`), the
    /// spelling used in pragma-style annotations and report tables.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Static => "static",
            Schedule::Dynamic => "dynamic",
        })
    }
}

/// Bounds of one static chunk, as produced by [`ParFor::chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkBounds {
    /// Chunk index in `0..n_chunks`.
    pub chunk: usize,
    /// First iteration index owned by the chunk.
    pub first: usize,
    /// One past the last iteration index owned by the chunk.
    pub end: usize,
}

/// Execute `body(i)` for every `i` in `range`, using `n_threads` workers
/// under the given `schedule`. Blocks until every iteration has completed.
///
/// The body must be safe to run concurrently for distinct indices; this is
/// precisely the property the paper's manual transformations establish
/// before inserting the pragma (privatized counters in Program 2, block
/// locks in Program 4).
pub fn multithreaded_for<F>(
    range: std::ops::Range<usize>,
    n_threads: usize,
    schedule: Schedule,
    body: F,
) where
    F: Fn(usize) + Sync,
{
    ParFor::new(range)
        .threads(n_threads)
        .schedule(schedule)
        .run(body);
}

/// Builder form of [`multithreaded_for`], for callers that also need the
/// chunk decomposition (e.g. per-chunk output arrays as in Program 2).
#[derive(Debug, Clone)]
pub struct ParFor {
    range: std::ops::Range<usize>,
    n_threads: usize,
    n_chunks: Option<usize>,
    schedule: Schedule,
    serial_cutoff: bool,
}

impl ParFor {
    /// A parallel loop over `range` with one thread and static scheduling;
    /// configure with the builder methods.
    pub fn new(range: std::ops::Range<usize>) -> Self {
        Self {
            range,
            n_threads: 1,
            n_chunks: None,
            schedule: Schedule::Static,
            serial_cutoff: false,
        }
    }

    /// Set the number of worker threads (default 1).
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "ParFor: need at least one thread");
        self.n_threads = n;
        self
    }

    /// Set the number of static chunks independently of the thread count.
    ///
    /// On the Tera MTA the paper runs 8–256 chunks on 2 processors
    /// (Table 6): the chunk count controls how many logical threads exist,
    /// the machine decides how they map to hardware streams. Each worker
    /// executes a contiguous block of chunks, so its iterations form one
    /// contiguous index run regardless of the chunk count.
    pub fn chunk_count(mut self, n: usize) -> Self {
        assert!(n > 0, "ParFor: need at least one chunk");
        self.n_chunks = Some(n);
        self
    }

    /// Set the schedule (default [`Schedule::Static`]).
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Enable the measured small-region sequential cutoff (default off;
    /// [`par_map`] turns it on).
    ///
    /// With the cutoff enabled, [`ParFor::run`] executes the first
    /// iteration on the caller and times it. If the estimated wall-clock
    /// saving from parallelizing the remainder — best case
    /// `total × (1 − 1/w)`, with `w` capped by the host's real
    /// parallelism — cannot amortize the *measured* cost of waking the
    /// pool ([`stats::dispatch_floor_ns`]), the rest runs inline too.
    /// This is the §7 `CreateThread` lesson applied to wakeups: a region
    /// whose per-task work sits below the dispatch floor is pure
    /// overhead, so the scheduler must refuse to open it. Iterations are
    /// visited exactly once either way, in an order both schedules
    /// already permit, so observable results are unchanged.
    pub fn serial_cutoff(mut self, on: bool) -> Self {
        self.serial_cutoff = on;
        self
    }

    /// Number of static chunks this loop decomposes into.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks.unwrap_or(self.n_threads)
    }

    /// The static chunk decomposition of the iteration space.
    pub fn chunks(&self) -> Vec<ChunkBounds> {
        let n_items = self.range.len();
        let n_chunks = self.n_chunks();
        (0..n_chunks)
            .map(|c| {
                let r = crate::chunk_range(c, n_items, n_chunks);
                ChunkBounds {
                    chunk: c,
                    first: self.range.start + r.start,
                    end: self.range.start + r.end,
                }
            })
            .collect()
    }

    /// Run `body(i)` for every index in the range.
    pub fn run<F>(&self, body: F)
    where
        F: Fn(usize) + Sync,
    {
        stats::record_tasks(self.range.len());
        if self.serial_cutoff {
            let n = self.range.len();
            if self.n_threads <= 1 || n <= 1 {
                for i in self.range.clone() {
                    body(i);
                }
                return;
            }
            // Probe: run the first iteration inline and time it. The
            // probe is work that had to happen anyway, so a wrong
            // decision costs only the dispatch floor, never lost work.
            let probe_start = Instant::now();
            body(self.range.start);
            let per_task_ns = probe_start.elapsed().as_nanos() as u64;
            let rest = self.range.start + 1..self.range.end;
            if stats::should_serialize(per_task_ns, rest.len(), self.n_threads) {
                stats::record_serial_cutoff();
                let timing = stats::timing_enabled();
                let inline_start = if timing { stats::now_ns() } else { 0 };
                for i in rest {
                    body(i);
                }
                if timing {
                    stats::record_busy_ns(per_task_ns + (stats::now_ns() - inline_start));
                }
                return;
            }
            let remainder = Self {
                range: rest,
                serial_cutoff: false,
                ..self.clone()
            };
            remainder.dispatch(&body);
            return;
        }
        self.dispatch(&body);
    }

    fn dispatch<F>(&self, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        match self.schedule {
            Schedule::Static => self.run_static(body),
            Schedule::Dynamic => self.run_dynamic(body),
        }
    }

    /// Run `body(chunk_bounds)` once per static chunk, each worker owning
    /// a **contiguous block** of chunks. This is the exact shape of
    /// Program 2: because chunks partition the index range in order, a
    /// contiguous block of chunks is a contiguous run of iterations — the
    /// cache-locality rationale for static scheduling on the conventional
    /// SMPs. (Round-robin chunk assignment would stride each worker across
    /// the whole range and defeat it.)
    pub fn run_chunked<F>(&self, body: F)
    where
        F: Fn(ChunkBounds) + Sync,
    {
        let chunks = self.chunks();
        let n_threads = self.n_threads.min(chunks.len().max(1));
        scope_threads(n_threads, |t| {
            for c in &chunks[crate::chunk_range(t, chunks.len(), n_threads)] {
                body(*c);
            }
        });
    }

    fn run_static<F>(&self, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        // Never wider than the range, as in `run_dynamic`. The body sees
        // indices, not chunks, so the clamp is invisible to it; a caller
        // of `run_chunked` keeps the chunk count it asked for.
        let clamped = Self {
            n_threads: self.n_threads.min(self.range.len().max(1)),
            ..self.clone()
        };
        clamped.run_chunked(|c| {
            for i in c.first..c.end {
                body(i);
            }
        });
    }

    fn run_dynamic<F>(&self, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        let queue = WorkQueue::new(self.range.clone());
        // Never wider than the range: a worker woken for an already
        // exhausted queue is pure dispatch cost.
        let n_threads = self.n_threads.min(self.range.len().max(1));
        scope_threads(n_threads, |_| {
            while let Some(batch) = queue.next_batch(dynamic_grain(queue.remaining(), n_threads)) {
                for i in batch {
                    body(i);
                }
            }
        });
    }
}

/// Batch size for dynamic self-scheduling: claim ~1/8 of a fair share per
/// `fetch_add` while work is plentiful, decaying to single-index claims
/// near the end so load balance stays as good as the paper's "next
/// unprocessed threat" loop. Clamped to at least 1 — in the
/// `n_tasks < n_threads` regime the fair share rounds to zero, and a
/// zero-size batch would assert in `WorkQueue::next_batch`.
pub(crate) fn dynamic_grain(remaining: usize, n_threads: usize) -> usize {
    (remaining / (8 * n_threads)).max(1)
}

/// Map `f` over `0..n_tasks` with `n_threads` workers and collect the
/// results **in index order**, exactly as a sequential `map` would.
///
/// Each task writes into its own write-once slot, so the output is
/// bit-identical to the sequential path for every thread count — the
/// property the experiment harness's oracle cross-checks rely on. Tasks
/// are self-scheduled ([`Schedule::Dynamic`]): variable-size ones
/// (benchmark scenarios, simulator sweeps) balance across workers, and
/// short uniform ones (table rows) are kept inline by the cutoff below.
///
/// `par_map` enables [`ParFor::serial_cutoff`]: a region whose measured
/// per-task work cannot amortize the pool's measured dispatch floor runs
/// inline on the caller instead, with identical output.
pub fn par_map<T, F>(n_tasks: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_threads <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    // One write-once slot per task. The lock is uncontended (the schedule
    // dispenses each index exactly once) and is what lets the slots be
    // shared with only `T: Send`; a region that panics drops them, and
    // with them every value already written.
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    ParFor::new(0..n_tasks)
        .threads(n_threads)
        .schedule(Schedule::Dynamic)
        .serial_cutoff(true)
        .run(|i| {
            let value = f(i);
            *slots[i].lock() = Some(value);
        });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("par_map: every index runs once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn check_each_index_once(schedule: Schedule, n: usize, threads: usize) {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        multithreaded_for(0..n, threads, schedule, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn static_schedule_visits_each_index_once() {
        check_each_index_once(Schedule::Static, 1000, 7);
    }

    #[test]
    fn dynamic_schedule_visits_each_index_once() {
        check_each_index_once(Schedule::Dynamic, 1000, 7);
    }

    #[test]
    fn empty_range_is_a_noop() {
        check_each_index_once(Schedule::Static, 0, 4);
        check_each_index_once(Schedule::Dynamic, 0, 4);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        check_each_index_once(Schedule::Static, 3, 16);
        check_each_index_once(Schedule::Dynamic, 3, 16);
    }

    #[test]
    fn dynamic_grain_is_at_least_one_in_every_regime() {
        // n_tasks < n_threads: the fair share rounds to zero and must be
        // clamped, or WorkQueue::next_batch would assert on k == 0.
        assert_eq!(dynamic_grain(3, 16), 1);
        assert_eq!(dynamic_grain(1, 128), 1);
        assert_eq!(dynamic_grain(0, 4), 1);
        // Plentiful work: ~1/8 of a fair share per claim.
        assert_eq!(dynamic_grain(1000, 4), 31);
        assert_eq!(dynamic_grain(10_000, 8), 156);
    }

    #[test]
    fn dynamic_schedule_with_fewer_tasks_than_threads_terminates_cleanly() {
        // Regression shape for the n_tasks < n_threads regime: most
        // workers find the queue already exhausted and must fall out of
        // their claim loop on the first None — a worker spinning on an
        // empty queue would hang this test (the harness timeout catches
        // it), and a zero grain would panic. Repeated because the failure
        // mode is a race between the claiming minority and the idle
        // majority.
        for _ in 0..50 {
            check_each_index_once(Schedule::Dynamic, 3, 16);
        }
        // The queue itself hands an exhausted range straight to None.
        let q = WorkQueue::new(0..3);
        while q.next_batch(dynamic_grain(q.remaining(), 16)).is_some() {}
        assert!(q.is_exhausted());
        assert_eq!(q.next_batch(1), None, "exhausted queue must stay None");
    }

    #[test]
    fn nonzero_range_start_respected() {
        let sum = AtomicU32::new(0);
        multithreaded_for(10..20, 3, Schedule::Static, |i| {
            assert!((10..20).contains(&i));
            sum.fetch_add(i as u32, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), (10..20).sum::<usize>() as u32);
    }

    #[test]
    fn chunk_decomposition_partitions_range() {
        let pf = ParFor::new(5..105).threads(2).chunk_count(16);
        let chunks = pf.chunks();
        assert_eq!(chunks.len(), 16);
        assert_eq!(chunks[0].first, 5);
        assert_eq!(chunks.last().unwrap().end, 105);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].first, "chunks must be contiguous");
        }
    }

    #[test]
    fn run_chunked_runs_every_chunk_once_with_many_chunks_few_threads() {
        let seen: Vec<AtomicU32> = (0..256).map(|_| AtomicU32::new(0)).collect();
        ParFor::new(0..1000)
            .threads(2)
            .chunk_count(256)
            .run_chunked(|c| {
                seen[c.chunk].fetch_add(1, Ordering::SeqCst);
            });
        assert!(seen.iter().all(|s| s.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn par_map_matches_sequential_map_for_every_thread_count() {
        let expected: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let got = par_map(97, threads, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn panicking_par_map_drops_the_values_already_written() {
        use std::sync::atomic::AtomicUsize;
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        const N: usize = 64;
        let result = std::panic::catch_unwind(|| {
            par_map(N, 4, |i| {
                if i == N - 1 {
                    // The last index is claimed last: every other task
                    // has been claimed, so each finishes and is written.
                    while CREATED.load(Ordering::SeqCst) < N - 1 {
                        std::thread::yield_now();
                    }
                    panic!("task {i} panicked");
                }
                CREATED.fetch_add(1, Ordering::SeqCst);
                Counted
            })
        });
        assert!(result.is_err(), "the panic must reach the caller");
        assert_eq!(CREATED.load(Ordering::SeqCst), N - 1);
        assert_eq!(
            DROPPED.load(Ordering::SeqCst),
            N - 1,
            "written values leaked"
        );
    }

    #[test]
    fn par_map_of_empty_task_list_is_empty() {
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn serial_cutoff_visits_each_index_exactly_once() {
        // Whichever way the measured cutoff decides (probe-then-inline or
        // probe-then-parallel-remainder), every index runs exactly once —
        // the invariant par_map's write-once slots depend on.
        for schedule in [Schedule::Static, Schedule::Dynamic] {
            let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
            ParFor::new(0..64)
                .threads(4)
                .schedule(schedule)
                .serial_cutoff(true)
                .run(|i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn cutoff_decision_follows_the_probe() {
        // The pure decision `run` makes after its probe, on synthetic
        // probes so no scheduler can change the reading: 63 remaining
        // ns-scale tasks never repay a region, ms-scale ones always do.
        assert!(stats::should_serialize(20, 63, 4));
        if stats::host_parallelism() >= 2 {
            assert!(!stats::should_serialize(2_000_000, 63, 4));
        }
    }

    #[test]
    fn trivial_tasks_take_the_sequential_cutoff() {
        // End to end: ~ns-scale tasks sit far below the measured dispatch
        // floor on any host, so the cutoff refuses to open a region —
        // unless the one timed probe iteration is descheduled and reads
        // as a slow task, hence five attempts. Counters are
        // process-global and tests run concurrently, so assert on the
        // delta being at least our own contribution.
        let before = crate::stats::snapshot();
        for _ in 0..5 {
            let got = par_map(64, 4, |i| i as u64 * 3 + 1);
            assert_eq!(got, (0..64).map(|i| i * 3 + 1).collect::<Vec<u64>>());
            if (crate::stats::snapshot() - before).serial_cutoff_regions >= 1 {
                return;
            }
        }
        panic!("64 trivial tasks must run inline, not pay the dispatch floor");
    }

    #[test]
    fn static_chunks_are_contiguous_per_worker() {
        // Each worker's iterations must form one contiguous run of the
        // index space — the cache-locality contract of static scheduling.
        // Record which OS thread executed every index and count ownership
        // runs; round-robin chunk assignment would produce `n_chunks`
        // runs, contiguous block assignment exactly `n_threads`.
        for (n_threads, n_chunks) in [(4, 4), (4, 16), (3, 7), (2, 256)] {
            let owner = parking_lot::Mutex::new(vec![None; 1000]);
            ParFor::new(0..1000)
                .threads(n_threads)
                .chunk_count(n_chunks)
                .run_chunked(|c| {
                    let me = std::thread::current().id();
                    let mut owner = owner.lock();
                    for slot in &mut owner[c.first..c.end] {
                        assert!(slot.is_none(), "index written twice");
                        *slot = Some(me);
                    }
                });
            let owners = owner.into_inner();
            assert!(owners.iter().all(|o| o.is_some()));
            let mut runs = 1;
            for w in owners.windows(2) {
                if w[0] != w[1] {
                    runs += 1;
                }
            }
            assert_eq!(
                runs, n_threads,
                "{n_threads} threads x {n_chunks} chunks: each worker must \
                 own one contiguous block"
            );
        }
    }
}
