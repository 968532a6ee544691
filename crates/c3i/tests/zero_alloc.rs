//! Counting-allocator proof that the masking pipeline's hot path is
//! allocation-free.
//!
//! After one warm-up call populates the thread's `KernelArena` (scratch
//! store, distance tables, run staging) and the output grid, repeated
//! `terrain_masking_into` pipelines must perform **zero** heap
//! allocations — the property the ring-run + arena data layout exists to
//! provide. The fine-grained host variant rides on the same arena and
//! opens one pool region per ring: after warm-up a call may allocate the
//! grid it returns and nothing else — nothing per region, nothing per arc.
//! This file deliberately contains exactly one test: the global allocator
//! counter would otherwise see other tests' allocations from concurrently
//! running test threads (it does see the pool workers', which is the
//! point).

use c3i::terrain::{
    generate, terrain_masking_fine_host, terrain_masking_into, terrain_masking_reference,
    TerrainScenarioParams,
};
use c3i::{Grid, NoRec};
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

#[test]
fn masking_pipeline_is_allocation_free_after_warmup() {
    // A mid-size scenario with clipped regions so every kernel shape
    // (row/col sweeps, corner peels, column parents) runs.
    let scenario = generate(TerrainScenarioParams {
        grid_size: 96,
        n_threats: 12,
        seed: 11,
        ..TerrainScenarioParams::default()
    });

    let mut masking = Grid::new(0, 0, 0.0);
    // Warm-up: sizes the output grid, the arena scratch, the distance
    // tables, and the run staging buffer.
    terrain_masking_into(&scenario, &mut masking, &mut NoRec);
    let expected = terrain_masking_reference(&scenario);
    assert_eq!(masking, expected, "warm-up output must already be correct");

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        terrain_masking_into(&scenario, &mut masking, &mut NoRec);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "hot path allocated {} times in 3 warm pipelines",
        after - before
    );
    assert_eq!(masking, expected, "warm runs must keep the exact output");

    // The fine-grained variant, two wide: the warm-up call spawns the pool
    // worker and sizes the ring slots; after it, each call allocates the
    // grid it returns and nothing else (a schedule that collected its
    // chunks into a `Vec` per region would read thousands here).
    assert_eq!(terrain_masking_fine_host(&scenario, 2), expected);
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let fine = terrain_masking_fine_host(&scenario, 2);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(
            allocs <= 1,
            "a warm fine-grained call allocated {allocs} times, not just its grid"
        );
        assert_eq!(fine, expected);
    }
}
