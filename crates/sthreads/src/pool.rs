//! The persistent, process-wide worker pool.
//!
//! The Sthreads library of the paper creates one OS thread per loop chunk
//! on Windows NT, at a cost of "tens of thousands of cycles" per
//! `CreateThread` (§7) — the overhead that erased most of the Pentium Pro
//! speedups. This module deliberately does **not** re-teach that lesson on
//! the host: there is one pool, [`ThreadPool::global`], whose workers are
//! spawned once, live as long as the process, and are handed each region
//! by an epoch bump. A worker that has just finished a region *watches*
//! the epoch for `HANDOFF_WINDOW` (a few pauses, a yield, repeat) before
//! it parks on a condition variable, and the caller watches for its last
//! worker the same way: regions back to back (one per ring in the
//! fine-grained Terrain Masking) cost a cache-line handoff, and only one
//! that arrives after the window pays a wake. The OS-thread cost model of
//! the paper (per-spawn cycle charges on NT and the Exemplar) lives only
//! in the machine simulators and calibrated models (`eval-core::models`,
//! `smp-sim`).
//!
//! A region of width `n` ([`ThreadPool::run_width`]) runs `body(0)` on
//! the caller and `body(1..n)` on pool workers, all concurrently, and
//! returns when every logical thread has finished. Bodies may share
//! borrowed (non-`'static`) data and may synchronize with each other
//! (barriers, full/empty variables), because every logical thread of a
//! region is a real, simultaneously-running OS thread.
//!
//! A panic in any body is caught, the region is drained (parked workers
//! are *not* left deadlocked), and the panic is re-raised on the caller.
//! Concurrent regions from independent threads take turns; a region
//! opened from inside another falls back to plain scoped threads, so
//! re-entrancy can never deadlock the pool.
//!
//! Every handoff is decided under the one lock over `PoolState`, who
//! waits included, so a publish or a last finish that finds nobody parked
//! makes no futex wake. The locks are `std::sync`'s with poison mapped to
//! the guard: `run_width` re-raises a body's panic while it still holds
//! the region lock, and the next region must open regardless.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::stats;

thread_local! {
    /// Set while the current thread is executing a parallel-region body
    /// (as pool worker, region caller, or fallback scoped thread). A
    /// nested region opened from such a thread must not wait on the pool's
    /// region lock — the outer region holds it — so it falls back to
    /// scoped OS threads instead. Only a region caller clears it again:
    /// workers and fallback threads run region bodies until they exit.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// A published parallel region: a type- and lifetime-erased pointer to the
/// caller's body plus the region width.
///
/// The `'static` lifetime is a lie told to the type system; see the SAFETY
/// argument in [`ThreadPool::run_width`] for why the pointer never
/// outlives the borrow it erases.
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    width: usize,
}

/// How long a worker watches for the next region, and a caller for its
/// last worker, before parking. 5 to 200 µs read the same on the
/// fine-grained kernel (docs/LAYERS.md); the small end spares an
/// oversubscribed host.
const HANDOFF_WINDOW: Duration = Duration::from_micros(20);

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

#[derive(Default)]
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
    /// Number of worker threads spawned so far (workers are lazy).
    n_workers: usize,
    /// Workers waiting on `work_cv`, and whether the region caller waits
    /// on `done_cv`. Each is set before its `wait` and cleared after it,
    /// under this lock, so a publish or a last finish skips the wake
    /// exactly when nobody waits: a thread not yet counted re-checks
    /// `epoch` or `active` under the same lock and does not wait.
    parked: usize,
    caller_parked: bool,
}

/// The guard of a lock or wait, poisoned or not: a region that re-raised a
/// body's panic poisoned the region lock, which guards nothing, and the
/// state lock and `par_map`'s slots are never held while a body runs.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide worker pool, [`ThreadPool::global`]; there is no
/// other.
///
/// Workers are spawned lazily on first use (asking the pool for its
/// [`n_threads`](ThreadPool::n_threads) costs nothing) and live for the
/// rest of the process; back-to-back regions pay a cache-line handoff,
/// spaced ones a condvar wakeup, never an OS thread spawn.
pub struct ThreadPool {
    n_threads: usize,
    /// Serializes regions. Held for the whole region, so a region's
    /// logical threads are exactly caller + dedicated workers — never
    /// interleaved with another region's bodies.
    region: Mutex<()>,
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

impl ThreadPool {
    /// The process-wide pool, sized to the host's available parallelism
    /// on first use. Its workers grow on demand when a region is wider
    /// than the host (oracle tests run 8 logical threads on small
    /// containers) and are never torn down.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool {
            n_threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            region: Mutex::new(()),
            state: Mutex::default(),
            epoch_hint: AtomicU64::new(0),
            active_hint: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// The host's available parallelism: the width callers default to.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Pre-spawn the workers a region of `width` logical threads needs, so
    /// the first timed region does not pay thread-creation cost.
    pub fn warm(&'static self, width: usize) {
        let mut st = unpoisoned(self.state.lock());
        self.ensure_workers_locked(&mut st, width.saturating_sub(1));
    }

    /// Run a region of `width` logical threads: `body(0)` on the caller,
    /// `body(1..width)` on pool workers, all concurrent. Returns when every
    /// body has finished; re-raises the first panic any body produced.
    ///
    /// With `width == 1` the body runs on the calling thread — the paper's
    /// measurement convention, where the 1-processor parallel run is the
    /// parallel program on one thread, not the sequential program.
    ///
    /// Called from inside another region (nested parallelism) this falls
    /// back to scoped OS threads — the pool's workers are busy with the
    /// outer region, and blocking on them would deadlock.
    pub fn run_width<F>(&'static self, width: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        assert!(width > 0, "ThreadPool: region width must be > 0");
        if width == 1 {
            body(0);
            return;
        }
        if IN_PARALLEL_REGION.get() {
            stats::record_nested_region();
            spawn_region(width, &body);
            return;
        }
        let _region = unpoisoned(self.region.lock());

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
        let wake = {
            let mut st = unpoisoned(self.state.lock());
            self.ensure_workers_locked(&mut st, width - 1);
            st.epoch += 1;
            st.job = Some(Job {
                body: erased,
                width,
            });
            st.active = width - 1;
            st.panic = None;
            self.active_hint.store(st.active, Ordering::Relaxed);
            self.epoch_hint.store(st.epoch, Ordering::Release);
            st.parked > 0
        };
        if wake {
            self.work_cv.notify_all();
        }

        // Run our own share as logical thread 0. A panic here must not
        // skip the completion wait: workers still hold the job pointer
        // into this frame.
        IN_PARALLEL_REGION.set(true);
        let caller_result = catch_unwind(AssertUnwindSafe(|| body(0)));
        IN_PARALLEL_REGION.set(false);

        watch(|| self.active_hint.load(Ordering::Acquire) == 0);
        let worker_panic = {
            let mut st = unpoisoned(self.state.lock());
            while st.active > 0 {
                st.caller_parked = true;
                st = unpoisoned(self.done_cv.wait(st));
                st.caller_parked = false;
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
    /// reaches them. A worker lives as long as the process, so its
    /// `JoinHandle` is dropped.
    fn ensure_workers_locked(&'static self, st: &mut PoolState, min_workers: usize) {
        while st.n_workers < min_workers {
            let index = st.n_workers;
            let seen_epoch = st.epoch;
            std::thread::Builder::new()
                .name(format!("sthreads-worker-{index}"))
                .spawn(move || worker_loop(self, index, seen_epoch))
                .expect("ThreadPool: failed to spawn worker thread");
            st.n_workers += 1;
        }
    }
}

/// The worker loop: run our logical thread of a new epoch's region if the
/// width covers us, signal completion, then watch for the next epoch and
/// park if the window closes without one.
fn worker_loop(pool: &ThreadPool, index: usize, mut seen_epoch: u64) -> ! {
    // Worker threads only ever execute region bodies, so a nested
    // region opened from one must always take the scoped fallback.
    IN_PARALLEL_REGION.set(true);
    let mut st = unpoisoned(pool.state.lock());
    loop {
        if st.epoch != seen_epoch {
            seen_epoch = st.epoch;
            // Worker `index` is logical thread `index + 1` (the caller is
            // thread 0); a region narrower than that skips this worker.
            let job = st.job.as_ref().filter(|j| index + 1 < j.width);
            if let Some(body) = job.map(|j| j.body) {
                drop(st);
                let result = catch_unwind(AssertUnwindSafe(|| body(index + 1)));
                st = unpoisoned(pool.state.lock());
                if let Err(payload) = result {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
                st.active -= 1;
                pool.active_hint.store(st.active, Ordering::Release);
                if st.active == 0 && st.caller_parked {
                    pool.done_cv.notify_all();
                }
            }
            continue;
        }
        drop(st);
        let handed = watch(|| pool.epoch_hint.load(Ordering::Acquire) != seen_epoch);
        st = unpoisoned(pool.state.lock());
        // Re-checked under the lock: a publish may have landed between the
        // last look and the lock.
        if !handed && st.epoch == seen_epoch {
            stats::record_park();
            st.parked += 1;
            st = unpoisoned(pool.work_cv.wait(st));
            st.parked -= 1;
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
                    IN_PARALLEL_REGION.set(true);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn region_runs_every_index_once() {
        let hits = [const { AtomicUsize::new(0) }; 8];
        ThreadPool::global().run_width(8, |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn width_one_region_runs_inline() {
        let tid = std::thread::current().id();
        // body is Fn + Sync, so record through a mutex-guarded slot.
        let slot = Mutex::new(None);
        ThreadPool::global().run_width(1, |t| {
            assert_eq!(t, 0);
            *slot.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(
            *slot.lock().unwrap(),
            Some(tid),
            "width-1 region must run on the caller"
        );
    }

    #[test]
    fn region_shares_borrowed_data() {
        let data = vec![1u64; 1000];
        let sum = AtomicUsize::new(0);
        ThreadPool::global().run_width(4, |t| {
            let part: u64 = data[t * 250..(t + 1) * 250].iter().sum();
            sum.fetch_add(part as usize, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn global_pool_has_at_least_one_thread() {
        assert!(ThreadPool::global().n_threads() >= 1);
    }

    #[test]
    fn pool_workers_persist_across_regions() {
        let pool = ThreadPool::global();
        pool.warm(4);
        let worker_ids = || {
            let ids = Mutex::new(BTreeSet::new());
            let caller = std::thread::current().id();
            pool.run_width(4, |_| {
                let id = std::thread::current().id();
                if id != caller {
                    ids.lock().unwrap().insert(format!("{id:?}"));
                }
            });
            ids.into_inner().unwrap()
        };
        let first = worker_ids();
        assert_eq!(first.len(), 3, "width-4 region uses 3 dedicated workers");
        for _ in 0..5 {
            assert_eq!(worker_ids(), first, "regions must reuse the same workers");
        }
    }

    #[test]
    fn pool_grows_beyond_the_host_width() {
        let pool = ThreadPool::global();
        let width = pool.n_threads() + 4;
        let count = AtomicUsize::new(0);
        pool.run_width(width, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), width);
    }

    #[test]
    fn nested_regions_fall_back_and_complete() {
        let count = AtomicUsize::new(0);
        ThreadPool::global().run_width(2, |_| {
            ThreadPool::global().run_width(3, |_| {
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
                        ThreadPool::global().run_width(4, |_| {
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
        ThreadPool::global().run_width(4, |t| {
            if t == 3 {
                panic!("worker body panicked");
            }
        });
    }

    #[test]
    #[should_panic(expected = "caller body panicked")]
    fn caller_panic_propagates_after_draining_workers() {
        ThreadPool::global().run_width(4, |t| {
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
            ThreadPool::global().run_width(2, |t| {
                if t == 1 {
                    panic!("nested payload {}", 6 * 7);
                }
            });
        }))
        .unwrap_err();
        let nested = catch_unwind(AssertUnwindSafe(|| {
            ThreadPool::global().run_width(2, |t| {
                if t == 0 {
                    ThreadPool::global().run_width(2, |u| {
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
            ThreadPool::global().run_width(2, |t| {
                if t == 0 {
                    ThreadPool::global().run_width(2, |u| match u {
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
        let pool = ThreadPool::global();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_width(4, |t| {
                if t == 2 {
                    panic!("one bad body");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // Parked workers must still answer the next region.
        let count = AtomicUsize::new(0);
        pool.run_width(4, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parked_threads_are_woken_on_both_condvars() {
        // Even rounds: the workers outlast the caller's window, so it parks
        // on `done_cv` and the last finish must wake it. Odd rounds: the
        // workers park on `work_cv` before the publish, which must wake
        // them all. A lost wakeup hangs the rounds, not the test.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::global();
            for round in 0..300 {
                let width = 2 + round % 3;
                let ran = AtomicUsize::new(0);
                if round % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                pool.run_width(width, |t| {
                    if t > 0 && round % 2 == 0 {
                        std::thread::sleep(5 * HANDOFF_WINDOW);
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(ran.load(Ordering::SeqCst), width, "round {round}");
            }
            done.send(()).unwrap();
        });
        match finished.recv_timeout(Duration::from_secs(30)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // The wedged region holds the region lock, so every later
                // region in this binary would hang too: end the process.
                let lost = "lost wakeup: a parked thread was never woken\n";
                let _ = std::io::Write::write_all(&mut std::io::stderr(), lost.as_bytes());
                std::process::exit(101);
            }
            result => result.expect("a round failed"),
        }
    }

    #[test]
    fn pool_survives_many_back_to_back_regions() {
        let pool = ThreadPool::global();
        let count = AtomicUsize::new(0);
        for _ in 0..10_000 {
            pool.run_width(4, |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 40_000);
    }
}
