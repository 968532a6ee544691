//! One test, alone in its binary: the two ways regions reach a pool.
//!
//! A caller that arrives every few milliseconds meets workers that have
//! long gone idle; a caller that opens regions back to back (the
//! fine-grained Terrain Masking opens one per ring, about a microsecond
//! apart) meets workers that have only just finished the last one. Both
//! must run every logical thread of every region exactly once, whatever
//! the pool does between regions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use sthreads::ThreadPool;

const SLEPT: u64 = 40;
const HOT: u64 = 1000;

#[test]
fn slept_and_back_to_back_regions_run_every_index_once() {
    let pool = ThreadPool::new(2);
    pool.warm(2);
    let hits = [const { AtomicU64::new(0) }; 2];
    let region = || {
        pool.run(|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        })
    };
    let assert_hits = |n: u64| {
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), n, "logical thread {t}");
        }
    };

    for _ in 0..SLEPT {
        std::thread::sleep(Duration::from_millis(5));
        region();
    }
    assert_hits(SLEPT);

    for _ in 0..HOT {
        region();
    }
    assert_hits(SLEPT + HOT);
}
