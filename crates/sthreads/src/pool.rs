//! Persistent worker-pool execution.
//!
//! The Sthreads library of the paper creates one OS thread per loop chunk
//! on Windows NT, at a cost of "tens of thousands of cycles" per
//! `CreateThread` (§7) — the overhead that erased most of the Pentium Pro
//! speedups. This module deliberately does **not** re-teach that lesson on
//! the host: workers are spawned once and handed each region by an epoch
//! bump. A worker that has just finished a region *watches* the epoch for
//! `HANDOFF_WINDOW` (a few pauses, a yield, repeat) before it parks on a
//! condition variable, and the caller watches for its last worker the same
//! way: regions back to back (one per ring in the fine-grained Terrain
//! Masking) cost a cache-line handoff, and only one that arrives after the
//! window pays a wake. The OS-thread cost model of the paper (per-spawn
//! cycle charges on NT and the Exemplar) lives only in the machine
//! simulators and calibrated models (`eval-core::models`, `smp-sim`).
//!
//! Semantics are unchanged from the scoped-thread implementation this
//! replaces: a region of width `n` runs `body(0)` on the caller and
//! `body(1..n)` on pool workers, all concurrently, and returns when every
//! logical thread has finished. Bodies may share borrowed (non-`'static`)
//! data and may synchronize with each other (barriers, full/empty
//! variables), because every logical thread of a region is a real,
//! simultaneously-running OS thread.
//!
//! A panic in any body is caught, the region is drained (parked workers
//! are *not* left deadlocked), and the panic is re-raised on the caller.
//! Nested or concurrent regions fall back to plain scoped threads, so
//! re-entrancy can never deadlock the pool.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::stats;

thread_local! {
    /// Set while the current thread is executing a parallel-region body
    /// (as pool worker, region caller, or fallback scoped thread). A
    /// nested `scope_threads` from such a thread must not wait on the
    /// pool's region lock — the outer region holds it — so it falls back
    /// to scoped OS threads instead.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// RAII flag for [`IN_PARALLEL_REGION`]; restores the previous value on
/// drop so it unwinds correctly through panicking bodies.
struct RegionGuard {
    prev: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let prev = IN_PARALLEL_REGION.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL_REGION.with(|f| f.set(prev));
    }
}

/// A published parallel region: a type- and lifetime-erased pointer to the
/// caller's body plus the region width.
///
/// The `'static` lifetime is a lie told to the type system; see the SAFETY
/// argument in [`ThreadPool::run_width`] for why the pointer never
/// outlives the borrow it erases.
#[derive(Clone, Copy)]
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    width: usize,
}

/// How long a worker watches for the next region, and a caller for its
/// last worker, before parking. 5 to 200 µs read the same on the
/// fine-grained kernel (docs/LAYERS.md); the small end spares an
/// oversubscribed host.
pub(crate) const HANDOFF_WINDOW: Duration = Duration::from_micros(20);

/// Watch `ready` for up to [`HANDOFF_WINDOW`]: a few dozen pauses, then a
/// yield, until it holds or the window closes. The yield lets the thread
/// being waited for run when both share a CPU; a pause-only wait starves
/// it for a scheduler quantum per region.
fn watch(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= HANDOFF_WINDOW {
            return false;
        }
        std::thread::yield_now();
    }
}

struct PoolState {
    /// Region counter; bumped once per published region. Workers compare
    /// it against the last epoch they observed to detect new work.
    epoch: u64,
    /// The currently (or most recently) published region.
    job: Option<Job>,
    /// Workers still executing the current region's body.
    active: usize,
    /// First panic payload captured from a worker body this region.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once, on drop of the owning pool; workers exit their loop.
    shutdown: bool,
    /// Number of worker threads spawned so far (workers are lazy).
    n_workers: usize,
    /// Publish time of the current region (`stats::now_ns`), or 0 when the
    /// timing tier is off. Workers diff against it for dispatch latency.
    publish_ns: u64,
    /// Σ over this region's workers of (body start − publish).
    region_dispatch_ns: u64,
    /// Per-worker body nanos for this region; the caller aggregates them
    /// at region exit. Written only under the state lock the workers
    /// already take to decrement `active`, so the timing tier adds no
    /// synchronization — only clock reads.
    region_busy: Vec<u64>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Copies of `state.epoch` and `state.active` for [`watch`], written
    /// inside the critical sections that change the originals and only
    /// ever a reason to go and take the lock, whose state stays the truth.
    epoch_hint: AtomicU64,
    active_hint: AtomicUsize,
    /// Workers park here once the window has closed on them.
    work_cv: Condvar,
    /// The region caller parks here until `active == 0`.
    done_cv: Condvar,
}

/// Private core of [`ThreadPool`]; shared via `Arc` so `ThreadPool` stays
/// cheaply cloneable (clones share the same workers).
struct Inner {
    shared: Arc<PoolShared>,
    /// Serializes regions on this pool. Held for the whole region, so a
    /// region's logical threads are exactly caller + dedicated workers —
    /// never interleaved with another region's bodies.
    region: Mutex<()>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent, reusable worker pool.
///
/// Workers are spawned lazily on first use (a pool that is only asked for
/// its [`n_threads`](ThreadPool::n_threads) costs nothing) and kept
/// between regions; back-to-back regions pay a cache-line handoff, spaced
/// ones a condvar wakeup, never an OS thread spawn. [`ThreadPool::global`]
/// is the process-wide pool every [`scope_threads`] region runs on;
/// explicit pools (`ThreadPool::new`) own their workers and shut them down
/// on drop, which keeps tests hermetic.
#[derive(Clone)]
pub struct ThreadPool {
    n_threads: NonZeroUsize,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("n_threads", &self.n_threads.get())
            .field("spawned_workers", &self.inner.shared.state.lock().n_workers)
            .finish()
    }
}

impl ThreadPool {
    /// Create a pool of `n_threads` workers. Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        Self {
            n_threads: NonZeroUsize::new(n_threads).expect("ThreadPool: n_threads must be > 0"),
            inner: Arc::new(Inner {
                shared: Arc::new(PoolShared {
                    state: Mutex::new(PoolState {
                        epoch: 0,
                        job: None,
                        active: 0,
                        panic: None,
                        shutdown: false,
                        n_workers: 0,
                        publish_ns: 0,
                        region_dispatch_ns: 0,
                        region_busy: Vec::new(),
                    }),
                    epoch_hint: AtomicU64::new(0),
                    active_hint: AtomicUsize::new(0),
                    work_cv: Condvar::new(),
                    done_cv: Condvar::new(),
                }),
                region: Mutex::new(()),
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn host() -> Self {
        let n = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(n)
    }

    /// The process-wide pool, sized to the host on first use. All
    /// [`scope_threads`] regions run here; its workers grow on demand when
    /// a region is wider than the host (oracle tests run 8 logical threads
    /// on small containers) and are never torn down.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(ThreadPool::host)
    }

    /// Number of worker threads in the pool.
    pub fn n_threads(&self) -> usize {
        self.n_threads.get()
    }

    /// Pre-spawn the workers a region of `width` logical threads needs, so
    /// the first timed region does not pay thread-creation cost.
    pub fn warm(&self, width: usize) {
        let mut st = self.inner.shared.state.lock();
        self.ensure_workers_locked(&mut st, width.saturating_sub(1));
    }

    /// Run `body(thread_index)` on every worker and wait; region width is
    /// the pool's `n_threads`.
    pub fn run<F>(&self, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_width(self.n_threads.get(), body);
    }

    /// Run a region of `width` logical threads: `body(0)` on the caller,
    /// `body(1..width)` on pool workers, all concurrent. Returns when every
    /// body has finished; re-raises the first panic any body produced.
    ///
    /// Called from inside another region (nested parallelism) this falls
    /// back to scoped OS threads — the pool's workers are busy with the
    /// outer region, and blocking on them would deadlock.
    pub fn run_width<F>(&self, width: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        assert!(width > 0, "ThreadPool: region width must be > 0");
        if width == 1 {
            // The paper's measurement convention: the 1-thread parallel run
            // is the parallel program on the calling thread.
            body(0);
            return;
        }
        if IN_PARALLEL_REGION.with(Cell::get) {
            stats::record_nested_region();
            spawn_region(width, &body);
            return;
        }
        let _region = self.inner.region.lock();
        let shared = &self.inner.shared;
        let timing = stats::timing_enabled();

        // SAFETY: the job pointer is dereferenced only by workers between
        // the publish below and their `active` decrement, and this frame
        // does not return (keeping `body` alive) until `active == 0` and
        // the decrementing workers have released the state lock. The
        // region lock guarantees no other caller overwrites the job while
        // this region runs.
        #[allow(unsafe_code)]
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&body)
        };
        {
            let mut st = shared.state.lock();
            self.ensure_workers_locked(&mut st, width - 1);
            st.epoch += 1;
            st.job = Some(Job {
                body: erased,
                width,
            });
            st.active = width - 1;
            st.panic = None;
            st.publish_ns = if timing { stats::now_ns() } else { 0 };
            st.region_dispatch_ns = 0;
            st.region_busy.clear();
            shared.active_hint.store(st.active, Ordering::Relaxed);
            shared.epoch_hint.store(st.epoch, Ordering::Release);
        }
        shared.work_cv.notify_all();

        // Run our own share as logical thread 0. A panic here must not
        // skip the completion wait: workers still hold the job pointer
        // into this frame.
        let caller_start = if timing { stats::now_ns() } else { 0 };
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            let _in_region = RegionGuard::enter();
            body(0);
        }));
        let caller_busy = if timing {
            stats::now_ns() - caller_start
        } else {
            0
        };

        watch(|| shared.active_hint.load(Ordering::Acquire) == 0);
        let worker_panic = {
            let mut st = shared.state.lock();
            while st.active > 0 {
                shared.done_cv.wait(&mut st);
            }
            if timing {
                // Snapshot the region's timing into the process-wide
                // accumulators: total busy, critical-path imbalance
                // (slowest logical thread vs perfect balance), and the
                // summed worker dispatch latencies.
                let mut sum = caller_busy;
                let mut max = caller_busy;
                for &b in &st.region_busy {
                    sum += b;
                    max = max.max(b);
                }
                let mean = sum / width as u64;
                stats::record_region_timing(st.region_dispatch_ns, sum, max - mean);
                let mut per_worker = Vec::with_capacity(st.region_busy.len() + 1);
                per_worker.push(caller_busy);
                per_worker.extend_from_slice(&st.region_busy);
                stats::record_region_worker_busy(per_worker);
            }
            st.job = None;
            st.panic.take()
        };
        stats::record_pooled_region();

        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Grow the worker set to at least `min_workers` threads. Must be
    /// called with the state lock held; new workers observe the current
    /// epoch as already-seen, so only a region published *after* this call
    /// reaches them.
    fn ensure_workers_locked(
        &self,
        st: &mut parking_lot::MutexGuard<'_, PoolState>,
        min_workers: usize,
    ) {
        while st.n_workers < min_workers {
            let index = st.n_workers;
            let seen_epoch = st.epoch;
            let shared = Arc::clone(&self.inner.shared);
            let handle = std::thread::Builder::new()
                .name(format!("sthreads-worker-{index}"))
                .spawn(move || worker_loop(&shared, index, seen_epoch))
                .expect("ThreadPool: failed to spawn worker thread");
            self.inner.handles.lock().push(handle);
            st.n_workers += 1;
        }
    }
}

/// The worker loop: run our logical thread of a new epoch's region if the
/// width covers us, signal completion, then watch for the next epoch and
/// park if the window closes without one.
fn worker_loop(shared: &PoolShared, index: usize, mut seen_epoch: u64) {
    // Worker threads only ever execute region bodies, so a nested
    // scope_threads from one must always take the scoped fallback.
    IN_PARALLEL_REGION.with(|f| f.set(true));
    let mut st = shared.state.lock();
    loop {
        if st.shutdown {
            return;
        }
        if st.epoch != seen_epoch {
            seen_epoch = st.epoch;
            // Worker `index` is logical thread `index + 1` (the caller is
            // thread 0); a region narrower than that skips this worker.
            let job = st.job.filter(|j| index + 1 < j.width);
            if let Some(job) = job {
                // Timing tier: publish_ns != 0 iff the caller sampled the
                // clock for this region, so a mid-region toggle of the
                // flag can only skip a region, never corrupt it.
                let timing = st.publish_ns != 0;
                let start = if timing { stats::now_ns() } else { 0 };
                let dispatch = start.saturating_sub(st.publish_ns);
                drop(st);
                let result = catch_unwind(AssertUnwindSafe(|| (job.body)(index + 1)));
                let busy = if timing { stats::now_ns() - start } else { 0 };
                st = shared.state.lock();
                if timing {
                    st.region_dispatch_ns += dispatch;
                    st.region_busy.push(busy);
                }
                if let Err(payload) = result {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
                st.active -= 1;
                shared.active_hint.store(st.active, Ordering::Release);
                if st.active == 0 {
                    shared.done_cv.notify_all();
                }
            }
            continue;
        }
        let timing = stats::timing_enabled();
        let idle_at = if timing { stats::now_ns() } else { 0 };
        drop(st);
        let handed = watch(|| shared.epoch_hint.load(Ordering::Acquire) != seen_epoch);
        st = shared.state.lock();
        // Re-checked under the lock: a publish or a shutdown may have
        // landed between the last look and the lock.
        if !handed && st.epoch == seen_epoch && !st.shutdown {
            stats::record_park();
            shared.work_cv.wait(&mut st);
        }
        if timing {
            stats::record_idle_ns(stats::now_ns() - idle_at);
        }
    }
}

/// Fallback for nested regions: fresh scoped OS threads, exactly the
/// pre-pool implementation. Spawned threads are flagged as in-region so
/// arbitrarily deep nesting keeps taking this path.
///
/// Panic semantics match the pooled path exactly: every body is joined,
/// the caller's own panic takes precedence, and otherwise the first
/// worker payload is re-raised verbatim. (Letting `std::thread::scope`
/// auto-join panicked threads would instead abort the scope with a
/// generic "a scoped thread panicked" payload, so a nested region would
/// surface a different panic than the same body on the pool.)
fn spawn_region<F>(width: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    let mut worker_panic: Option<Box<dyn Any + Send>> = None;
    let caller_result = std::thread::scope(|s| {
        let handles: Vec<_> = (1..width)
            .map(|t| {
                s.spawn(move || {
                    let _in_region = RegionGuard::enter();
                    body(t);
                })
            })
            .collect();
        // The caller is already flagged (we only get here nested).
        let r = catch_unwind(AssertUnwindSafe(|| body(0)));
        for h in handles {
            if let Err(payload) = h.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        r
    });
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Run `n_threads` copies of `body` concurrently on the process-wide
/// persistent pool ([`ThreadPool::global`]) and wait for all of them.
/// `body` receives the thread index `0..n_threads`.
///
/// With `n_threads == 1` the body runs on the calling thread — this mirrors
/// the paper's measurement convention where the 1-processor parallel run is
/// the parallel program on one thread, not the sequential program.
pub fn scope_threads<F>(n_threads: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    assert!(n_threads > 0, "scope_threads: need at least one thread");
    ThreadPool::global().run_width(n_threads, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_threads_runs_every_index_once() {
        let hits = [const { AtomicUsize::new(0) }; 8];
        scope_threads(8, |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn scope_threads_single_thread_runs_inline() {
        let tid = std::thread::current().id();
        // body is Fn + Sync, so record through a mutex-guarded slot.
        let slot = parking_lot::Mutex::new(None);
        scope_threads(1, |t| {
            assert_eq!(t, 0);
            *slot.lock() = Some(std::thread::current().id());
        });
        assert_eq!(
            *slot.lock(),
            Some(tid),
            "width-1 region must run on the caller"
        );
    }

    #[test]
    fn scope_threads_shares_borrowed_data() {
        let data = vec![1u64; 1000];
        let sum = AtomicUsize::new(0);
        scope_threads(4, |t| {
            let part: u64 = data[t * 250..(t + 1) * 250].iter().sum();
            sum.fetch_add(part as usize, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn pool_reports_size_and_runs() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.n_threads(), 3);
        let count = AtomicUsize::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "n_threads must be > 0")]
    fn pool_rejects_zero_threads() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn host_pool_has_at_least_one_thread() {
        assert!(ThreadPool::host().n_threads() >= 1);
    }

    #[test]
    fn pool_workers_persist_across_regions() {
        let pool = ThreadPool::new(4);
        pool.warm(4);
        let worker_ids = || {
            let ids = parking_lot::Mutex::new(BTreeSet::new());
            let caller = std::thread::current().id();
            pool.run(|_| {
                let id = std::thread::current().id();
                if id != caller {
                    ids.lock().insert(format!("{id:?}"));
                }
            });
            ids.into_inner()
        };
        let first = worker_ids();
        assert_eq!(first.len(), 3, "width-4 region uses 3 dedicated workers");
        for _ in 0..5 {
            assert_eq!(worker_ids(), first, "regions must reuse the same workers");
        }
    }

    #[test]
    fn explicit_pool_grows_beyond_its_default_width() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.run_width(6, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn nested_regions_fall_back_and_complete() {
        let count = AtomicUsize::new(0);
        scope_threads(2, |_| {
            scope_threads(3, |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn concurrent_regions_from_independent_threads_serialize_safely() {
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..20 {
                        scope_threads(4, |_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 3 * 20 * 4);
    }

    #[test]
    #[should_panic(expected = "worker body panicked")]
    fn worker_panic_propagates_to_caller() {
        scope_threads(4, |t| {
            if t == 3 {
                panic!("worker body panicked");
            }
        });
    }

    #[test]
    #[should_panic(expected = "caller body panicked")]
    fn caller_panic_propagates_after_draining_workers() {
        scope_threads(4, |t| {
            if t == 0 {
                panic!("caller body panicked");
            }
        });
    }

    /// Render a panic payload the way `panic!` produced it (`&str` for
    /// literals, `String` for formatted messages).
    fn payload_text(p: &(dyn Any + Send)) -> String {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            panic!("panic payload is neither &str nor String");
        }
    }

    #[test]
    fn nested_region_panic_payload_matches_pooled_path() {
        // The same formatted panic, raised by a worker body on the pooled
        // path and inside a nested (scoped-fallback) region. Both must
        // surface the original payload — not thread::scope's generic
        // "a scoped thread panicked" replacement.
        let pooled = catch_unwind(AssertUnwindSafe(|| {
            scope_threads(2, |t| {
                if t == 1 {
                    panic!("nested payload {}", 6 * 7);
                }
            });
        }))
        .unwrap_err();
        let nested = catch_unwind(AssertUnwindSafe(|| {
            scope_threads(2, |t| {
                if t == 0 {
                    scope_threads(2, |u| {
                        if u == 1 {
                            panic!("nested payload {}", 6 * 7);
                        }
                    });
                }
            });
        }))
        .unwrap_err();
        assert_eq!(payload_text(&*pooled), "nested payload 42");
        assert_eq!(
            payload_text(&*nested),
            payload_text(&*pooled),
            "nested fallback must re-raise the identical panic payload"
        );
    }

    #[test]
    fn nested_region_caller_panic_takes_precedence() {
        // Caller-body panic precedence is part of "identical to the pooled
        // path": when both the nested caller and a nested worker panic,
        // the caller's payload wins, as in run_width.
        let got = catch_unwind(AssertUnwindSafe(|| {
            scope_threads(2, |t| {
                if t == 0 {
                    scope_threads(2, |u| match u {
                        0 => panic!("nested caller payload"),
                        _ => panic!("nested worker payload"),
                    });
                }
            });
        }))
        .unwrap_err();
        assert_eq!(payload_text(&*got), "nested caller payload");
    }

    #[test]
    fn pool_survives_a_panicking_region() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|t| {
                if t == 2 {
                    panic!("one bad body");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // Parked workers must still answer the next region.
        let count = AtomicUsize::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_survives_many_back_to_back_regions() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        for _ in 0..10_000 {
            pool.run(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 40_000);
    }

    #[test]
    fn dropping_a_pool_shuts_workers_down() {
        let pool = ThreadPool::new(3);
        pool.run(|_| {});
        // Drop joins the workers; if shutdown were broken this would hang
        // (and the harness timeout would catch it).
        drop(pool);
    }
}
