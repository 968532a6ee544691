//! Per-kernel benchmarks of the c3i hot paths, each paired with its
//! pinned baseline so the 1.5x ratio of `eval-core`'s kernels test can be
//! reproduced (and bisected) kernel by kernel:
//!
//! * `los_recurrence` — the XDraw ring recurrence over one paper-scale
//!   region: historical cell-at-a-time `reference` kernel vs the
//!   run-based row-sweep kernels.
//! * `ring_iteration` — `Region::ring` (a fresh `Vec` of cells per ring)
//!   vs `Region::ring_runs` (≤4 clipped edge runs, no allocation).
//! * `engagement_scan` — the stepwise pair scan of Programs 1/2 vs the
//!   structure-of-arrays batch scan.

use c3i::terrain::{self, KernelArena, Region, TerrainScenarioParams};
use c3i::threat::{self, intervals_for_pair, intervals_for_pair_stepwise, ThreatScenarioParams};
use c3i::NoRec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// `KERNELS_BENCH_QUICK=1` shrinks every scenario for the ci smoke run;
/// the default is paper scale (the vendored criterion stand-in has no
/// CLI filtering, so the knob is an environment variable).
fn quick() -> bool {
    std::env::var_os("KERNELS_BENCH_QUICK").is_some()
}

/// One paper-scale terrain scenario (1024² grid; regions up to 5% of the
/// terrain) — the paper-scale twin of the scenario that test times.
fn terrain_scenario() -> terrain::TerrainScenario {
    terrain::generate(TerrainScenarioParams {
        grid_size: if quick() { 192 } else { 1024 },
        n_threats: if quick() { 10 } else { 60 },
        seed: 1,
        ..TerrainScenarioParams::default()
    })
}

fn bench_los_recurrence(c: &mut Criterion) {
    let scenario = terrain_scenario();
    let mut g = c.benchmark_group("kernels_los_recurrence");
    g.sample_size(10);
    g.bench_function("baseline_scalar", |b| {
        b.iter(|| black_box(terrain::terrain_masking_reference(black_box(&scenario))))
    });
    g.bench_function("run_sweeps", |b| {
        let mut out = c3i::Grid::new(0, 0, f64::INFINITY);
        b.iter(|| {
            terrain::terrain_masking_into(black_box(&scenario), &mut out, &mut NoRec);
            black_box(out.as_slice().len())
        })
    });
    g.finish();
}

fn bench_ring_iteration(c: &mut Criterion) {
    let scenario = terrain_scenario();
    // Clipped and unclipped regions alike, as the pipeline sees them.
    let regions: Vec<Region> = scenario
        .threats
        .iter()
        .map(|t| Region::of_checked(t, scenario.terrain.x_size(), scenario.terrain.y_size()))
        .collect();
    let mut g = c.benchmark_group("kernels_ring_iteration");
    g.bench_function("ring_vec", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for region in &regions {
                for k in 0..=region.radius {
                    acc += region.ring(k).len();
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("ring_runs", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for region in &regions {
                for k in 0..=region.radius {
                    acc += region.ring_runs(k).len();
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_engagement_scan(c: &mut Criterion) {
    // Paper-scale pair population: 1000 threats scanned against weapons.
    let scenario = threat::generate(ThreatScenarioParams {
        n_threats: if quick() { 100 } else { 1000 },
        seed: 1,
        ..ThreatScenarioParams::default()
    });
    fn stepwise(s: &threat::ThreatScenario) -> usize {
        let mut n = 0usize;
        for (ti, th) in s.threats.iter().enumerate() {
            for (wi, w) in s.weapons.iter().enumerate() {
                intervals_for_pair_stepwise(ti as u32, wi as u32, th, w, &mut NoRec, |_| n += 1);
            }
        }
        n
    }
    fn soa_batch(s: &threat::ThreatScenario) -> usize {
        let mut n = 0usize;
        for (ti, th) in s.threats.iter().enumerate() {
            for (wi, w) in s.weapons.iter().enumerate() {
                // NoRec dispatches the public entry to the batch scan.
                intervals_for_pair(ti as u32, wi as u32, th, w, &mut NoRec, |_| n += 1);
            }
        }
        n
    }
    let mut g = c.benchmark_group("kernels_engagement_scan");
    g.bench_function("stepwise", |b| {
        b.iter(|| black_box(stepwise(black_box(&scenario))))
    });
    g.bench_function("soa_batch", |b| {
        b.iter(|| black_box(soa_batch(black_box(&scenario))))
    });
    g.finish();
}

/// Keep the arena referenced so the benches exercise the same per-thread
/// reuse path the pipeline uses (and the symbol is not dead-stripped).
fn warm_arena() {
    KernelArena::with(|a| {
        let _ = a.split();
    });
}

fn benches(c: &mut Criterion) {
    warm_arena();
    bench_los_recurrence(c);
    bench_ring_iteration(c);
    bench_engagement_scan(c);
}

criterion_group!(kernels, benches);
criterion_main!(kernels);
