//! Property-based tests for the sthreads runtime primitives.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use sthreads::{chunk_range, multithreaded_for, ParFor, WorkQueue};

proptest! {
    /// Every index in 0..n belongs to exactly one chunk, for any (n, chunks).
    #[test]
    fn chunking_is_a_partition(n in 0usize..5000, chunks in 1usize..300) {
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for c in 0..chunks {
            let r = chunk_range(c, n, chunks);
            prop_assert_eq!(r.start, prev_end, "chunks must be contiguous");
            prev_end = r.end;
            covered += r.len();
        }
        prop_assert_eq!(prev_end, n);
        prop_assert_eq!(covered, n);
    }

    /// Chunk sizes never differ by more than one.
    #[test]
    fn chunking_is_balanced(n in 0usize..5000, chunks in 1usize..300) {
        let sizes: Vec<usize> = (0..chunks).map(|c| chunk_range(c, n, chunks).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// A chunked ParFor with an arbitrary chunk count still covers the range.
    #[test]
    fn chunked_par_for_covers_range(
        start in 0usize..100,
        len in 0usize..1000,
        threads in 1usize..6,
        chunks in 1usize..64,
    ) {
        let covered = AtomicU64::new(0);
        ParFor::new(start..start + len)
            .threads(threads)
            .chunk_count(chunks)
            .run_chunked(|c| {
                covered.fetch_add((c.end - c.first) as u64, Ordering::Relaxed);
            });
        prop_assert_eq!(covered.load(Ordering::Relaxed), len as u64);
    }

    /// WorkQueue::next_batch dispenses every index exactly once for any
    /// batch size, truncating (never overshooting) at the range end.
    #[test]
    fn work_queue_batches_partition(start in 0usize..500, len in 0usize..2000, k in 1usize..40) {
        let q = WorkQueue::new(start..start + len);
        let mut got = Vec::new();
        while let Some(r) = q.next_batch(k) {
            prop_assert!(r.start >= start && r.end <= start + len, "batch {r:?} out of range");
            prop_assert!(r.len() <= k, "batch longer than requested");
            got.extend(r);
        }
        prop_assert_eq!(got, (start..start + len).collect::<Vec<_>>());
        prop_assert_eq!(q.remaining(), 0);
    }

    /// Concurrent draining with mixed batch sizes claims each index
    /// exactly once, for arbitrary thread counts.
    #[test]
    fn work_queue_batches_concurrent(len in 0usize..3000, threads in 1usize..9, k in 1usize..40) {
        let q = WorkQueue::new(0..len);
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            let (q, hits) = (&q, &hits);
            for t in 0..threads {
                // Half the workers use batch k, half single claims, so
                // mixed grains race on the same counter.
                let k = if t % 2 == 0 { k } else { 1 };
                s.spawn(move || {
                    while let Some(r) = q.next_batch(k) {
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// multithreaded_for's batched claiming visits each index exactly
    /// once on the persistent pool, for arbitrary ranges and widths.
    #[test]
    fn batched_dynamic_par_for_visits_each_index_once(n in 0usize..4000, threads in 1usize..9) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        multithreaded_for(0..n, threads, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// par_map is bit-identical to the sequential map at 1, 2 and 8
    /// workers, for arbitrary task counts — self-scheduling may reorder
    /// execution, never results.
    #[test]
    fn par_map_is_bit_identical_to_sequential(n in 0usize..3000) {
        let expected: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        for threads in [1usize, 2, 8] {
            let got = sthreads::par_map(n, threads, |i| {
                (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
            });
            prop_assert_eq!(&got, &expected, "par_map diverged at {} threads", threads);
        }
    }
}

/// A worker panicking mid-storm in a self-scheduled region must propagate
/// the panic to the caller, and — the regression this test pins — must
/// leave the pool in a state where subsequent regions run to completion:
/// a peer still claiming from the shared queue, or parked waiting for the
/// region to close, must never deadlock. Repeated because the panic lands
/// at a different point of the claim interleaving each time.
#[test]
fn panicked_region_propagates_and_leaves_the_pool_usable() {
    for round in 0..20 {
        let result = std::panic::catch_unwind(|| {
            multithreaded_for(0..2000, 4, |i| {
                if i == 997 {
                    panic!("intentional mid-storm panic (round {round})");
                }
            });
        });
        assert!(result.is_err(), "the body's panic must reach the caller");

        // The pool must still dispense every index of a fresh region.
        let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        multithreaded_for(0..512, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "pool unusable after a panicked region (round {round})"
        );
    }
}
