//! One test, alone in its binary: the `stats` counters are process-global,
//! so an exact `parks` delta means something only where nothing else
//! opens regions.

use std::sync::atomic::{AtomicU64, Ordering};
use sthreads::{multithreaded_for, stats, Schedule};

/// A region is never wider than its range under either schedule: 3 tasks
/// at 16 threads open a 3-wide region (the caller plus 2 woken workers),
/// not a 16-wide one whose other 13 workers wake to an exhausted queue or
/// an empty chunk. The schedules run one after the other, in this one
/// test, so each delta is exact.
#[test]
fn region_is_no_wider_than_its_range() {
    for schedule in [Schedule::Dynamic, Schedule::Static] {
        let hits = AtomicU64::new(0);
        let before = stats::snapshot();
        multithreaded_for(0..3, 16, schedule, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let delta = stats::snapshot() - before;
        assert_eq!(hits.load(Ordering::Relaxed), 3, "{schedule}");
        assert_eq!(delta.regions, 1, "{schedule}");
        assert_eq!(
            delta.parks, 2,
            "{schedule}: width − 1 workers woken for a 3-task range"
        );
    }
}
