//! One test, alone in its binary: the two ways regions reach a pool.
//!
//! A caller that arrives every few milliseconds meets workers that have
//! long gone idle; a caller that opens regions back to back (the
//! fine-grained Terrain Masking opens one per ring, about a microsecond
//! apart) meets workers that have only just finished the last one. Both
//! must run every logical thread of every region exactly once, whatever
//! the pool does between regions — and `stats::parks`, which counts real
//! waits on the pool's condition variable, must tell the two apart: one
//! park per spaced region, next to none for the back-to-back ones. Alone
//! in its binary because the counters are process-wide: beside the
//! crate's unit tests, which open regions of their own on both CPUs, an
//! exact count means nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use sthreads::{stats, ThreadPool};

const SLEPT: u64 = 40;
const HOT: u64 = 1000;

#[test]
fn spaced_regions_park_and_back_to_back_regions_are_handed_over() {
    let spawned = stats::snapshot();
    let pool = ThreadPool::new(2);
    pool.warm(2);
    let hits = [const { AtomicU64::new(0) }; 2];
    let region = || {
        pool.run_width(pool.n_threads(), |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        })
    };
    let assert_hits = |n: u64| {
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), n, "logical thread {t}");
        }
    };

    // Sleep in 5 ms steps until the worker has parked `n` times since
    // `before`: the window is microseconds, so one step is the rule.
    let sleep_until_parked = |before: stats::StatsSnapshot, n: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            if (stats::snapshot() - before).parks >= n {
                return;
            }
            assert!(Instant::now() < deadline, "the idle worker never parked");
        }
    };

    // The fresh worker parks once; every spaced region then wakes it and
    // sends it back to park exactly once.
    sleep_until_parked(spawned, 1);
    let before = stats::snapshot();
    for i in 0..SLEPT {
        region();
        sleep_until_parked(before, i + 1);
    }
    assert_hits(SLEPT);
    let slept = stats::snapshot() - before;
    assert_eq!((slept.regions, slept.parks), (SLEPT, SLEPT));

    // Wake it once more, then open regions back to back: it is handed
    // each inside its watch window. (On one CPU the handoff has to wait
    // for a time slice and may well park; only completion is asserted.)
    region();
    let before = stats::snapshot();
    for _ in 0..HOT {
        region();
    }
    assert_hits(SLEPT + 1 + HOT);
    let hot = stats::snapshot() - before;
    assert_eq!(hot.regions, HOT);
    if std::thread::available_parallelism().is_ok_and(|n| n.get() < 2) {
        return;
    }
    assert!(hot.parks <= HOT / 2, "{} parks in {HOT} regions", hot.parks);
}
