//! One test, alone in its binary: the `stats` counters are process-global,
//! so an exact `regions` delta means something only where nothing else
//! opens regions.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sthreads::{multithreaded_for, stats, ParFor};

/// A region is never wider than its work: 3 indices (or 3 chunks) at 16
/// threads open one 3-wide region (the caller plus 2 workers), not a
/// 16-wide one whose other 13 workers start on an exhausted queue. The
/// witness is the set of OS threads the body ran on — at most 3, the
/// caller among them. (`parks == 2` used to be the witness, when `parks`
/// was inferred as `width − 1` per region; it now counts real waits on the
/// pool's condition variable, which a worker handed its region inside the
/// watch window never makes.) The index loop and the chunked loop run one
/// after the other, in this one test, so each delta is exact.
#[test]
fn region_is_no_wider_than_its_range() {
    assert_three_wide("index loop", |body| multithreaded_for(0..3, 16, |_| body()));
    assert_three_wide("3 chunks", |body| {
        ParFor::new(0..3)
            .threads(16)
            .chunk_count(3)
            .run_chunked(|_| body())
    });
}

/// Run a 3-task loop through `run` and check it opened one region on at
/// most 3 OS threads.
fn assert_three_wide(name: &str, run: impl FnOnce(&(dyn Fn() + Sync))) {
    let hits = AtomicU64::new(0);
    let threads = Mutex::new(HashSet::new());
    let before = stats::snapshot();
    run(&|| {
        hits.fetch_add(1, Ordering::Relaxed);
        threads.lock().unwrap().insert(std::thread::current().id());
    });
    let delta = stats::snapshot() - before;
    assert_eq!(hits.load(Ordering::Relaxed), 3, "{name}");
    assert_eq!(delta.regions, 1, "{name}");
    let threads = threads.into_inner().unwrap();
    assert!(
        threads.len() <= 3,
        "{name}: {} OS threads ran a 3-task range",
        threads.len()
    );
}
