//! The fine-grained (inner-loop parallel) Terrain Masking program — the
//! Tera MTA variant of §6.
//!
//! The coarse-grained program needs a private temp array per thread, which
//! is unaffordable for the hundreds of threads a Tera processor wants. So
//! here the outer loop over threats stays *sequential* and the inner loops
//! are parallelized instead:
//!
//! * the bulk copy / reset / min-merge loops over a threat's region are
//!   flat parallel loops over thousands of cells, and
//! * the masking recurrence is parallelized *ring by ring*: cells within a
//!   ring depend only on the previous ring, so each ring is a parallel
//!   loop (width 8k for ring k) with a barrier between rings.
//!
//! One temp array total; hundreds of threads; exactly the loop widths that
//! make this "viable for the Tera MTA, but not for our conventional
//! coarse-grained multiprocessor platforms" — on an SMP, a few hundred
//! cells per ring is far too little work to amortize OS-thread
//! synchronization.

use super::los::{
    merge_min, merged, raw_alt_for_cell, save_and_reset, sensor_height, write_ring, AltStore,
    KernelArena, Region, RingSweep, ScratchAlt,
};
use super::scenario::TerrainScenario;
use crate::counts::{NoRec, OpCounts, ParallelPhase, PhasedProfile, Rec};
use crate::grid::Grid;
use std::sync::atomic::{AtomicU64, Ordering};
use sthreads::{chunk_range, multithreaded_for};

/// Fine-grained Terrain Masking on real host threads. Produces the same
/// grid as Programs 3 and 4 bit-for-bit. `n_threads` is the worker count
/// used for every ring. Each ring cell has its own result slot, so the
/// grid cannot depend on which worker claimed which arc.
pub fn terrain_masking_fine_host(scenario: &TerrainScenario, n_threads: usize) -> Grid<f64> {
    let terrain = &scenario.terrain;
    let mut masking = Grid::new(terrain.x_size(), terrain.y_size(), f64::INFINITY);

    // The one temp array, the ring tables and the ring result slots live
    // in this thread's arena, reused across threats; ring cell lists are
    // never materialized — each ring is cut into arcs of its edge runs.
    KernelArena::with(|arena| {
        for threat in &scenario.threats {
            let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
            let h_s = sensor_height(terrain, threat);

            // temp = masking over the region, then masking = +inf there:
            // flat parallel loops on the Tera (the machine models charge
            // them as parallel phases), row copies and fills here.
            save_and_reset(&mut masking, &mut arena.scratch, &region);

            // Ring recurrence: each ring is a parallel loop over its
            // cells, reading only the previous ring; a barrier separates
            // rings.
            for (x, y) in region
                .ring_runs(0)
                .cells()
                .chain(region.ring_runs(1).cells())
            {
                AltStore::set(&mut masking, x, y, f64::NEG_INFINITY);
            }
            for k in 2..=region.radius {
                let runs = region.ring_runs(k);
                let n = runs.len();
                if arena.ring_slots.len() < n {
                    arena.ring_slots.resize_with(n, || AtomicU64::new(0));
                }
                let results = &arena.ring_slots[..n];
                arena.kernel.fill(k, scenario.cell_size_m);
                let sweep = RingSweep {
                    terrain,
                    h_s,
                    region: &region,
                    k,
                    store: &masking,
                    kern: &arena.kernel,
                };
                // Rings are the sub-microsecond case (a few hundred cells,
                // ~25 ns each): a task is an arc of the ring's canonical
                // order, two per worker, swept through the same kernels
                // the sequential program runs over whole runs.
                let n_arcs = n.min(2 * n_threads);
                multithreaded_for(0..n_arcs, n_threads, |a| {
                    let arc = chunk_range(a, n, n_arcs);
                    let mut first = 0;
                    for run in runs.iter() {
                        let (lo, hi) = (arc.start.max(first), arc.end.min(first + run.len()));
                        if lo < hi {
                            let mut slots = results[lo..hi].iter();
                            let sink = |v: f64| {
                                let slot = slots.next().expect("one slot per cell");
                                slot.store(v.to_bits(), Ordering::Relaxed);
                            };
                            sweep.run(run, lo - first..hi - first, sink, &mut NoRec);
                        }
                        first += run.len();
                    }
                });
                write_ring(&mut masking, runs, |i| {
                    f64::from_bits(results[i].load(Ordering::Relaxed))
                });
            }

            // masking = Min(clamped per-threat altitude, temp): the third
            // flat loop, one zipped pass per row here.
            merge_min(&mut masking, terrain, &arena.scratch, &region);
        }
    });
    masking
}

/// Fine-grained Terrain Masking under the counting backend: returns the
/// masking grid and the [`PhasedProfile`] — the ordered list of
/// barrier-separated parallel phases (copy, reset, one per ring, merge,
/// per threat) with their widths and operation counts. The machine models
/// charge each phase at the concurrency its width supports.
pub fn terrain_masking_fine(scenario: &TerrainScenario) -> (Grid<f64>, PhasedProfile) {
    let terrain = &scenario.terrain;
    let mut masking = Grid::new(terrain.x_size(), terrain.y_size(), f64::INFINITY);
    let mut phases = Vec::new();

    let mut serial = OpCounts::default();
    // The masking initialization is itself a flat parallel loop over the
    // whole grid (width = every cell).
    {
        let mut r = OpCounts::default();
        r.sstore(terrain.len() as u64);
        phases.push(ParallelPhase {
            width: terrain.len() as u64,
            ops: r,
        });
    }

    for threat in &scenario.threats {
        let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
        let h_s = sensor_height(terrain, threat);
        let cells: Vec<(usize, usize)> = region.cells().collect();
        serial.load(4);
        serial.int(8);

        // Phase: parallel copy masking -> temp.
        let mut temp = ScratchAlt::new(&region, f64::INFINITY);
        let mut r = OpCounts::default();
        for &(x, y) in &cells {
            temp.set(x, y, AltStore::get(&masking, x, y));
            r.sload(1);
            r.sstore(1);
        }
        phases.push(ParallelPhase {
            width: cells.len() as u64,
            ops: r,
        });

        // Phase: parallel reset.
        let mut r = OpCounts::default();
        for &(x, y) in &cells {
            AltStore::set(&mut masking, x, y, f64::INFINITY);
            r.sstore(1);
        }
        phases.push(ParallelPhase {
            width: cells.len() as u64,
            ops: r,
        });

        // Ring phases.
        let mut r = OpCounts::default();
        let inner: Vec<(usize, usize)> = region.ring(0).into_iter().chain(region.ring(1)).collect();
        for &(x, y) in &inner {
            AltStore::set(&mut masking, x, y, f64::NEG_INFINITY);
            r.sstore(1);
        }
        phases.push(ParallelPhase {
            width: inner.len() as u64,
            ops: r,
        });
        for k in 2..=region.radius {
            let ring = region.ring(k);
            let mut r = OpCounts::default();
            let values: Vec<f64> = ring
                .iter()
                .map(|&(x, y)| {
                    raw_alt_for_cell(
                        terrain,
                        scenario.cell_size_m,
                        h_s,
                        region.cx,
                        region.cy,
                        x,
                        y,
                        &masking,
                        &mut r,
                    )
                })
                .collect();
            for (&(x, y), &v) in ring.iter().zip(&values) {
                AltStore::set(&mut masking, x, y, v);
                r.sstore(1);
            }
            phases.push(ParallelPhase {
                width: ring.len() as u64,
                ops: r,
            });
        }

        // Phase: parallel min-merge.
        let mut r = OpCounts::default();
        for &(x, y) in &cells {
            let raw = AltStore::get(&masking, x, y);
            let v = merged(raw, terrain[(x, y)], temp.get(x, y));
            AltStore::set(&mut masking, x, y, v);
            r.sload(3);
            r.fp(2);
            r.sstore(1);
        }
        phases.push(ParallelPhase {
            width: cells.len() as u64,
            ops: r,
        });
    }

    (masking, PhasedProfile::new(serial, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::scenario::small_scenario;
    use crate::terrain::sequential::{terrain_masking_host, terrain_masking_profile};

    #[test]
    fn fine_host_matches_sequential_bitwise() {
        // Seeds 1 and 6 as generated, and seed 1 with a threat moved into
        // each grid corner: rings clipped to a quadrant, row runs that end
        // in a corner cell on one side only.
        let mut cornered = small_scenario(1);
        let far = cornered.terrain.x_size() - 1;
        for (t, (x, y)) in [(0, 0), (far, 0), (0, far), (far, far)]
            .into_iter()
            .enumerate()
        {
            (cornered.threats[t].x, cornered.threats[t].y) = (x, y);
        }
        for (name, s) in [
            ("seed 1", small_scenario(1)),
            ("seed 6", small_scenario(6)),
            ("corner threats", cornered),
        ] {
            let seq = terrain_masking_host(&s);
            // 32: more workers than ring 2 has cells (16, fewer once it is
            // clipped), so arcs of one cell on a region as wide as the ring.
            for threads in [1, 2, 4, 8, 32] {
                let fine = terrain_masking_fine_host(&s, threads);
                assert_eq!(fine, seq, "{name} threads={threads}");
            }
        }
    }

    #[test]
    fn fine_host_arcs_that_cut_long_runs_match_sequential_bitwise() {
        // A 160-cell grid whose threats reach 70 to 200 cells, so a ring's
        // runs are over a hundred cells: at 3 and 7 workers (6 and 14 arcs
        // a ring) arcs start and end inside runs, cutting the sweeps'
        // chunks of parents.
        let mut s =
            super::super::scenario::generate(super::super::scenario::TerrainScenarioParams {
                grid_size: 160,
                n_threats: 5,
                seed: 11,
                ..Default::default()
            });
        let placed = [
            (80, 80, 79),
            (0, 0, 159),
            (159, 40, 120),
            (30, 159, 200),
            (100, 60, 70),
        ];
        assert_eq!(s.threats.len(), placed.len());
        for (t, (x, y, radius)) in s.threats.iter_mut().zip(placed) {
            (t.x, t.y, t.radius) = (x, y, radius);
        }
        let seq = terrain_masking_host(&s);
        for threads in [3, 7] {
            let fine = terrain_masking_fine_host(&s, threads);
            assert_eq!(fine, seq, "threads={threads}");
        }
    }

    #[test]
    fn counting_backend_matches_sequential_bitwise() {
        let s = small_scenario(2);
        let seq = terrain_masking_host(&s);
        let (fine, _) = terrain_masking_fine(&s);
        assert_eq!(fine, seq);
    }

    #[test]
    fn phase_structure_matches_the_algorithm() {
        let s = small_scenario(3);
        let (_, profile) = terrain_masking_fine(&s);
        // One grid-init phase, then per threat: copy + reset +
        // inner-rings + (radius-1) rings + merge.
        let expected: usize = 1 + s
            .threats
            .iter()
            .map(|t| 4 + (t.radius.max(1) - 1))
            .sum::<usize>();
        assert_eq!(profile.order().len(), expected);
    }

    #[test]
    fn ring_phase_widths_grow_with_ring_index() {
        // For an unclipped threat, ring k has 8k cells; phases recorded in
        // order should show that growth between consecutive ring phases.
        let mut s = small_scenario(4);
        s.threats.truncate(1);
        let t = &mut s.threats[0];
        t.x = 64;
        t.y = 64;
        t.radius = 20; // unclipped in a 128x128 grid
        let (_, profile) = terrain_masking_fine(&s);
        // phases: grid-init, copy, reset, inner(rings 0+1), ring2.., merge
        let phases: Vec<ParallelPhase> = profile.phases().collect();
        let ring_phases = &phases[4..phases.len() - 1];
        assert_eq!(ring_phases.len(), 19);
        for (i, p) in ring_phases.iter().enumerate() {
            let k = i + 2;
            assert_eq!(p.width, 8 * k as u64, "ring {k}");
        }
    }

    #[test]
    fn total_fine_ops_track_sequential_ops() {
        // The fine variant does the same arithmetic as the sequential
        // program; totals should agree within bookkeeping noise.
        let s = small_scenario(5);
        let (_, seq_profile) = terrain_masking_profile(&s);
        let (_, fine_profile) = terrain_masking_fine(&s);
        let a = seq_profile.total().instructions() as f64;
        let b = fine_profile.total().instructions() as f64;
        assert!((a - b).abs() / a < 0.05, "seq={a} fine={b}");
    }

    #[test]
    fn weighted_width_supplies_hundreds_of_threads() {
        // §6's point: inner-loop parallelism provides enough threads for
        // the Tera. At benchmark scale regions are ~100 cells across, so
        // the op-weighted mean width must be in the hundreds.
        let s = super::super::scenario::generate(super::super::scenario::TerrainScenarioParams {
            grid_size: 512,
            n_threats: 8,
            seed: 9,
            ..Default::default()
        });
        let (_, profile) = terrain_masking_fine(&s);
        let ops = |p: &ParallelPhase| p.ops.instructions() as f64;
        let width = profile
            .phases()
            .map(|p| p.width as f64 * ops(&p))
            .sum::<f64>()
            / profile.phases().map(|p| ops(&p)).sum::<f64>();
        assert!(width > 100.0, "op-weighted width = {width}");
    }
}
