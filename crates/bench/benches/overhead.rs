//! Parallel-region dispatch overhead: the host-side analog of the paper's
//! §7 finding that Sthreads' per-chunk `CreateThread` (tens of thousands
//! of cycles) erased the Pentium Pro speedups.
//!
//! * `spawn_overhead` — an empty-body region opened on fresh scoped OS
//!   threads (the pre-pool implementation, and what Sthreads did on NT)
//!   vs the persistent pool's workers (back to back, so what it times is
//!   the pool's handoff; a regression in it shows up here first).
//! * `dispatch_overhead` — `par_map` of trivial (~ns) vs substantial
//!   (~100 µs) tasks, so both the per-task cost floor and the amortized
//!   steady state stay visible in the perf trajectory. `par_map` now
//!   takes the measured sequential cutoff for sub-floor work, so the
//!   `raw_dispatch` variants pin `serial_cutoff(false)` to keep the real
//!   pool dispatch path on the record, and the `timing_on` variant bounds
//!   the cost of the `sthreads::stats` nano-timing tier (the always-on
//!   counter tier is exercised by every other entry here — its budget is
//!   the ≤2% drift acceptance on this group). The `raw_dispatch` pair is
//!   also the Static-vs-Dynamic comparison `docs/LAYERS.md` quotes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sthreads::{par_map, scope_threads, stats, ParFor, Schedule, ThreadPool};

const REGION_WIDTH: usize = 4;

/// Deterministic busy work sized around ~100 µs of host compute.
fn busy_task(seed: usize) -> u64 {
    let mut x = seed as u64 | 1;
    for _ in 0..50_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

fn bench_spawn_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("spawn_overhead");
    g.sample_size(10);
    g.bench_function("scoped_os_threads_empty_region_4", |b| {
        // The old execution layer: n-1 fresh OS threads per region.
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 1..REGION_WIDTH {
                    s.spawn(move || black_box(t));
                }
                black_box(0usize);
            })
        })
    });
    g.bench_function("persistent_pool_empty_region_4", |b| {
        // The pool: workers kept between regions, handed each one by an
        // epoch bump (a handoff back to back, a condvar wake otherwise).
        let pool = ThreadPool::new(REGION_WIDTH);
        pool.warm(REGION_WIDTH);
        b.iter(|| {
            pool.run(|t| {
                black_box(t);
            })
        })
    });
    g.bench_function("global_pool_empty_region_4", |b| {
        // What multithreaded_for/par_map callers actually pay.
        ThreadPool::global().warm(REGION_WIDTH);
        b.iter(|| {
            scope_threads(REGION_WIDTH, |t| {
                black_box(t);
            })
        })
    });
    g.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch_overhead");
    g.sample_size(10);
    ThreadPool::global().warm(REGION_WIDTH);
    g.bench_function("par_map_trivial_256_tasks", |b| {
        b.iter(|| par_map(256, REGION_WIDTH, |i| black_box(i as u64 * 3 + 1)))
    });
    g.bench_function("par_map_100us_16_tasks", |b| {
        b.iter(|| par_map(16, REGION_WIDTH, busy_task))
    });
    // The pool's dispatch path with the cutoff pinned off: what a
    // trivial-task region costs when it really goes parallel, under each
    // schedule. This is the number the cutoff's measured floor protects
    // callers from.
    for schedule in [Schedule::Static, Schedule::Dynamic] {
        g.bench_function(
            format!("raw_dispatch_trivial_256_tasks_{schedule:?}"),
            |b| {
                b.iter(|| {
                    ParFor::new(0..256)
                        .threads(REGION_WIDTH)
                        .schedule(schedule)
                        .serial_cutoff(false)
                        .run(|i| {
                            black_box(i as u64 * 3 + 1);
                        })
                })
            },
        );
    }
    // The nano-timing tier (clock reads around every job + region
    // aggregation) on the substantial-task shape; compare against
    // par_map_100us_16_tasks to see its cost.
    g.bench_function("par_map_100us_16_tasks_timing_on", |b| {
        stats::set_timing(true);
        b.iter(|| par_map(16, REGION_WIDTH, busy_task));
        stats::set_timing(false);
    });
    g.finish();
}

criterion_group!(benches, bench_spawn_overhead, bench_dispatch_overhead);
criterion_main!(benches);
