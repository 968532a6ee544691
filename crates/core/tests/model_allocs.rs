//! Counting-allocator bound on the Tera model's two folds: a call of
//! `Experiments::ta_tera` or `tm_tera` allocates a fixed number of
//! buffers per scenario, whatever the chunk and processor counts. The
//! chunked fold keeps one buffer of processor totals per scenario, not a
//! vector of `n_chunks` chunk totals and one list per processor; the
//! phased fold keeps a term and a run count per distinct phase. This file
//! deliberately contains exactly one test: the global allocator counter
//! would otherwise see other tests' allocations from concurrently running
//! test threads.

use eval_core::{Experiments, Workload, WorkloadScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_of(f: impl FnOnce() -> f64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn tera_folds_allocate_a_fixed_number_of_buffers_per_scenario() {
    // One worker: no pool thread is running while the calls are counted.
    let e = Experiments::new(Workload::build_with(WorkloadScale::Reduced, 1));
    let ta_scenarios = e.workload.ta_per_threat.len() as u64;
    let tm_scenarios = e.workload.tm_fine.len() as u64;

    for n_chunks in [1, 256, 999, 1000, 1001, 100_000] {
        for n_procs in [1, 2, 1024, 65_536] {
            let allocs = allocs_of(|| e.ta_tera(n_chunks, n_procs));
            assert!(
                allocs <= ta_scenarios,
                "ta_tera({n_chunks}, {n_procs}) allocated {allocs} times over \
                 {ta_scenarios} scenarios"
            );
        }
    }
    for n_procs in [1, 2, 1024, 65_536] {
        let allocs = allocs_of(|| e.tm_tera(n_procs));
        assert!(
            allocs <= 2 * tm_scenarios,
            "tm_tera({n_procs}) allocated {allocs} times over {tm_scenarios} scenarios"
        );
    }
}
