//! Barrier synchronization and parallel reduction.
//!
//! The fine-grained Terrain Masking program is a sequence of parallel
//! phases separated by barriers (ring `k` may not start until ring
//! `k − 1` completes). On the Tera MTA a barrier is a fetch-add counter
//! plus a full/empty broadcast word; [`Barrier`] is the host equivalent,
//! reusable across phases. [`reduce`] is the standard structured
//! tree-free reduction built on [`crate::multithreaded_for`].

use parking_lot::{Condvar, Mutex};

struct BarrierState {
    /// Threads still to arrive in the current phase.
    waiting: usize,
    /// Phase counter (distinguishes consecutive barrier uses).
    phase: u64,
}

/// A reusable N-party barrier.
///
/// ```
/// use sthreads::{scope_threads, Barrier};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let barrier = Barrier::new(4);
/// let before = AtomicUsize::new(0);
/// scope_threads(4, |_| {
///     before.fetch_add(1, Ordering::SeqCst);
///     barrier.wait();
///     // Every thread sees all four arrivals after the barrier.
///     assert_eq!(before.load(Ordering::SeqCst), 4);
/// });
/// ```
pub struct Barrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl Barrier {
    /// A barrier for `parties` threads. Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "Barrier: need at least one party");
        Self {
            parties,
            state: Mutex::new(BarrierState {
                waiting: parties,
                phase: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Block until all parties have called `wait` for this phase. Returns
    /// `true` for exactly one caller per phase (the "leader", which
    /// arrived last) — useful for phase-sequential work.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        let phase = st.phase;
        st.waiting -= 1;
        if st.waiting == 0 {
            // Last arrival: open the next phase and release everyone.
            st.waiting = self.parties;
            st.phase += 1;
            self.cv.notify_all();
            return true;
        }
        while st.phase == phase {
            self.cv.wait(&mut st);
        }
        false
    }
}

/// Parallel reduction: split `0..n` over `n_threads` workers, map each
/// index with `map`, combine within a worker with `combine`, then fold
/// the per-worker results (in worker order, so the result is
/// deterministic for non-commutative `combine`).
pub fn reduce<T, M, C>(n: usize, n_threads: usize, identity: T, map: M, combine: C) -> T
where
    T: Send + Sync + Clone,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    assert!(n_threads > 0);
    let partials: Vec<Mutex<T>> = (0..n_threads)
        .map(|_| Mutex::new(identity.clone()))
        .collect();
    crate::pool::scope_threads(n_threads, |t| {
        let range = crate::chunk_range(t, n, n_threads);
        let mut acc = identity.clone();
        for i in range {
            acc = combine(acc, map(i));
        }
        *partials[t].lock() = acc;
    });
    partials
        .into_iter()
        .map(Mutex::into_inner)
        .fold(identity, &combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::scope_threads;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_separates_phases() {
        // Each thread increments a counter per phase; after each barrier
        // everyone must observe exactly (phase * parties) increments.
        let parties = 4;
        let barrier = Barrier::new(parties);
        let count = AtomicUsize::new(0);
        scope_threads(parties, |_| {
            for phase in 1..=5usize {
                count.fetch_add(1, Ordering::SeqCst);
                barrier.wait();
                assert_eq!(
                    count.load(Ordering::SeqCst),
                    phase * parties,
                    "phase {phase}"
                );
                barrier.wait(); // second barrier so nobody races ahead
            }
        });
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        let parties = 6;
        let barrier = Barrier::new(parties);
        let leaders = AtomicUsize::new(0);
        scope_threads(parties, |_| {
            for _ in 0..10 {
                if barrier.wait() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = Barrier::new(1);
        for _ in 0..3 {
            assert!(b.wait());
        }
    }

    #[test]
    fn reduce_sums_correctly() {
        let total = reduce(10_000, 7, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 9999 * 10_000 / 2);
    }

    #[test]
    fn reduce_is_deterministic_for_float_sums() {
        // Same thread count => identical partial grouping => identical
        // floating-point result.
        let run = || reduce(5000, 4, 0.0f64, |i| (i as f64).sqrt(), |a, b| a + b);
        assert_eq!(run(), run());
    }

    #[test]
    fn reduce_handles_empty_and_tiny_ranges() {
        assert_eq!(reduce(0, 4, 0u32, |_| 1, |a, b| a + b), 0);
        assert_eq!(reduce(2, 8, 0u32, |_| 1, |a, b| a + b), 2);
    }

    #[test]
    fn reduce_max_finds_the_maximum() {
        let m = reduce(1000, 3, i64::MIN, |i| ((i * 37) % 251) as i64, i64::max);
        assert_eq!(m, 250);
    }
}
