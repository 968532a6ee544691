//! # sthreads — structured multithreaded programming runtime
//!
//! A Rust analog of the programming systems used in the SC'98 evaluation of
//! the Tera MTA with the C3I Parallel Benchmark Suite:
//!
//! * the **Caltech Sthreads library** (structured multithreading on Windows
//!   NT, used for the Pentium Pro runs),
//! * the **HP Exemplar shared-memory pragmas** (used for the Exemplar runs),
//! * the **Tera parallelization pragmas, futures and synchronization
//!   variables** (used for the Tera MTA runs).
//!
//! Futures and general full/empty synchronization variables are not here:
//! Programs 1–4 as built use the multithreaded loop and `int_fetch_add`
//! only, so those are the two structures this crate provides:
//!
//! * [`multithreaded_for`] / [`ParFor`] / [`par_map`] — the
//!   `#pragma multithreaded` loop: index loops self-schedule (Program 4),
//!   and [`ParFor::run_chunked`] hands out static chunks (Program 2),
//! * [`SyncCounter`] — `int_fetch_add` on a synchronization variable, the
//!   shared output-slot counter of the fine-grained Threat Analysis.
//!
//! (Full/empty words themselves are simulated, with their timing, by
//! `mta-sim`.)
//!
//! Parallel regions run on real OS threads of one pool, the persistent,
//! process-wide [`ThreadPool::global`]: its workers are spawned on first
//! use and live as long as the process, so a region costs a handoff or a
//! condvar wakeup rather than thread spawns. The host-timed benchmark variants in `c3i` run on it,
//! so their parallelizations can be checked for correctness and timed on
//! the host (by the repo benchmark, `benchmark/`). The abstract operation
//! counts the machine models consume are not this crate's: `c3i` records
//! them, one logical thread at a time, with no thread of its own.
//!
//! # Quick examples
//!
//! A parallel loop over an index range:
//!
//! ```
//! use sthreads::multithreaded_for;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! multithreaded_for(0..1000, 4, |i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```
//!
//! A parallel map whose output is bit-identical to the sequential map for
//! every thread count — the property the experiment harness's oracles
//! rely on:
//!
//! ```
//! use sthreads::par_map;
//!
//! let squares = par_map(8, 4, |i| (i * i) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! Parallel regions run on a persistent process-wide pool; inspecting it
//! and the runtime counters:
//!
//! ```
//! use sthreads::{multithreaded_for, ThreadPool};
//!
//! let pool = ThreadPool::global();
//! assert!(pool.n_threads() >= 1);
//!
//! let before = sthreads::stats::snapshot();
//! multithreaded_for(0..100, 2, |_| {});
//! let delta = sthreads::stats::snapshot() - before;
//! assert!(delta.tasks >= 100);
//! ```

#![warn(missing_docs)]
// One exception, allowed where it is: the pool erases the lifetime of a
// region's body for the duration of the region (`pool.rs`).
#![deny(unsafe_code)]

pub mod par_for;
pub mod pool;
pub mod queue;
pub mod stats;
pub mod syncvar;

pub use par_for::{multithreaded_for, par_map, ChunkBounds, ParFor};
pub use pool::ThreadPool;
pub use queue::WorkQueue;
pub use stats::StatsSnapshot;
pub use syncvar::SyncCounter;

/// Compute the half-open index range owned by `chunk` when `n_items` items
/// are divided as evenly as possible among `n_chunks` chunks.
///
/// This is exactly the blocking expression used by the paper's multithreaded
/// Threat Analysis (Program 2):
///
/// ```text
/// first_threat = (chunk*num_threats)/num_chunks;
/// last_threat  = ((chunk+1)*num_threats)/num_chunks - 1;
/// ```
///
/// Every item belongs to exactly one chunk and chunk sizes differ by at most
/// one.
///
/// ```
/// use sthreads::chunk_range;
/// assert_eq!(chunk_range(0, 10, 3), 0..3);
/// assert_eq!(chunk_range(1, 10, 3), 3..6);
/// assert_eq!(chunk_range(2, 10, 3), 6..10);
/// ```
pub fn chunk_range(chunk: usize, n_items: usize, n_chunks: usize) -> std::ops::Range<usize> {
    assert!(n_chunks > 0, "chunk_range: n_chunks must be positive");
    assert!(
        chunk < n_chunks,
        "chunk_range: chunk {chunk} out of {n_chunks}"
    );
    let first = chunk * n_items / n_chunks;
    let last = (chunk + 1) * n_items / n_chunks;
    first..last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_range_covers_all_items_exactly_once() {
        for n_items in [0usize, 1, 7, 100, 1000] {
            for n_chunks in [1usize, 2, 3, 7, 16, 256] {
                let mut seen = vec![0u32; n_items];
                for c in 0..n_chunks {
                    for i in chunk_range(c, n_items, n_chunks) {
                        seen[i] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s == 1),
                    "items={n_items} chunks={n_chunks}"
                );
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for n_items in [5usize, 100, 999] {
            for n_chunks in [2usize, 3, 13, 64] {
                let sizes: Vec<usize> = (0..n_chunks)
                    .map(|c| chunk_range(c, n_items, n_chunks).len())
                    .collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn chunk_range_rejects_out_of_range_chunk() {
        chunk_range(3, 10, 3);
    }
}
