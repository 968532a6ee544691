//! Program 3: the sequential Terrain Masking program.
//!
//! For each threat in turn: save the affected region of the shared
//! `masking` array into `temp`, recompute the region in place with the
//! per-threat recurrence, then fold `min(masking, temp)` back. The
//! outer loop is not parallelizable as written because different threats'
//! regions of influence overlap — concurrent iterations would clobber each
//! other's in-place recurrences.
//!
//! The four bulk loops per threat (copy out, reset, compute, min-merge)
//! stream over large arrays doing almost no arithmetic, which is why the
//! paper finds this program memory-bound.

use super::los::{
    clamp_alt, compute_raw_alts_in, merge_min, reference, save_and_reset, AltStore, KernelArena,
    Region, ScratchAlt,
};
use super::scenario::TerrainScenario;
use crate::counts::{NoRec, Profile, Rec};
use crate::grid::Grid;
use sthreads::OpRecorder;

/// Sequential Terrain Masking (Program 3). Returns the masking grid:
/// `masking[x][y]` is the maximum altitude at which an aircraft at that
/// cell is invisible to every threat (`+∞` where no threat has influence).
pub fn terrain_masking<R: Rec>(scenario: &TerrainScenario, r: &mut R) -> Grid<f64> {
    let mut masking = Grid::new(0, 0, f64::INFINITY);
    terrain_masking_into(scenario, &mut masking, r);
    masking
}

/// Program 3 into a caller-owned output grid, with all working storage
/// (the per-threat `temp` scratch and the ring kernel tables) drawn from
/// this thread's [`KernelArena`]. After one warm-up call, repeated table
/// pipelines through this entry perform zero hot-path allocations — the
/// property the counting-allocator test pins.
pub fn terrain_masking_into<R: Rec>(
    scenario: &TerrainScenario,
    masking: &mut Grid<f64>,
    r: &mut R,
) {
    let terrain = &scenario.terrain;
    masking.reset(terrain.x_size(), terrain.y_size(), f64::INFINITY);
    r.sstore(masking.len() as u64); // masking[x][y] = INFINITY

    KernelArena::with(|arena| {
        for threat in &scenario.threats {
            let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
            r.load(4); // threat record
            r.int(8); // region bounds
            let (temp, kern) = arena.split();

            // temp[x][y] = masking[x][y] over the region of influence, then
            // masking[x][y] = INFINITY there (reset for the in-place
            // recurrence; raw values overwrite these).
            let n = region.n_cells() as u64;
            save_and_reset(masking, temp, &region);
            r.sload(n);
            r.sstore(2 * n);

            // masking[x][y] = maximum safe altitude due to this threat.
            compute_raw_alts_in(
                terrain,
                scenario.cell_size_m,
                threat,
                &region,
                masking,
                kern,
                r,
            );

            // masking[x][y] = Min(masking[x][y], temp[x][y]), clamping the
            // raw recurrence value to the terrain floor as it is folded in.
            merge_min(masking, terrain, temp, &region);
            r.sload(3 * n); // masking, temp, terrain
            r.fp(2 * n); // clamp + min
            r.sstore(n);
        }
    });
}

/// The pinned scalar baseline of Program 3: fresh per-threat allocations
/// and the historical cell-at-a-time recurrence ([`mod@reference`]). This is
/// the comparison side of `eval-core`'s kernels-ratio test, the bench baseline,
/// and the fuzzer's kernel-differential config; it must keep the exact
/// pre-optimization behavior.
pub fn terrain_masking_reference(scenario: &TerrainScenario) -> Grid<f64> {
    let terrain = &scenario.terrain;
    let mut masking = Grid::new(terrain.x_size(), terrain.y_size(), f64::INFINITY);
    for threat in &scenario.threats {
        let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
        let mut temp = ScratchAlt::new(&region, f64::INFINITY);
        for (x, y) in region.cells() {
            temp.set(x, y, AltStore::get(&masking, x, y));
        }
        for (x, y) in region.cells() {
            AltStore::set(&mut masking, x, y, f64::INFINITY);
        }
        reference::compute_raw_alts(
            terrain,
            scenario.cell_size_m,
            threat,
            &region,
            &mut masking,
            &mut NoRec,
        );
        for (x, y) in region.cells() {
            let per_threat = clamp_alt(AltStore::get(&masking, x, y), terrain[(x, y)]);
            let prior = temp.get(x, y);
            AltStore::set(&mut masking, x, y, per_threat.min(prior));
        }
    }
    masking
}

/// Convenience wrapper running Program 3 without recording.
pub fn terrain_masking_host(scenario: &TerrainScenario) -> Grid<f64> {
    terrain_masking(scenario, &mut NoRec)
}

/// Run Program 3 under the counting backend, returning the masking grid
/// and the operation [`Profile`] (one logical thread).
pub fn terrain_masking_profile(scenario: &TerrainScenario) -> (Grid<f64>, Profile) {
    let mut r = OpRecorder::new();
    let masking = terrain_masking(scenario, &mut r);
    (masking, Profile::sequential(Default::default(), r.counts()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::scenario::small_scenario;

    #[test]
    fn cells_outside_all_regions_stay_infinite() {
        let s = small_scenario(1);
        let masking = terrain_masking_host(&s);
        let regions: Vec<Region> = s
            .threats
            .iter()
            .map(|t| Region::of_checked(t, s.terrain.x_size(), s.terrain.y_size()))
            .collect();
        let mut outside_seen = 0;
        for (x, y, &v) in masking.iter_cells() {
            if !regions.iter().any(|rg| rg.contains(x, y)) {
                assert!(
                    v.is_infinite(),
                    "({x},{y}) outside all regions must be +inf"
                );
                outside_seen += 1;
            }
        }
        assert!(
            outside_seen > 0,
            "small scenario should leave some terrain uncovered"
        );
    }

    #[test]
    fn covered_cells_are_finite_and_at_least_terrain_level() {
        let s = small_scenario(2);
        let masking = terrain_masking_host(&s);
        let regions: Vec<Region> = s
            .threats
            .iter()
            .map(|t| Region::of_checked(t, s.terrain.x_size(), s.terrain.y_size()))
            .collect();
        for (x, y, &v) in masking.iter_cells() {
            if regions.iter().any(|rg| rg.contains(x, y)) {
                assert!(v.is_finite(), "covered cell ({x},{y}) must be finite");
                assert!(
                    v >= s.terrain[(x, y)] - 1e-9,
                    "masking below terrain at ({x},{y}): {v} < {}",
                    s.terrain[(x, y)]
                );
            }
        }
    }

    #[test]
    fn masking_is_min_over_per_threat_fields() {
        let s = small_scenario(3);
        let masking = terrain_masking_host(&s);
        // Independent composition: compute each threat field standalone
        // and take the pointwise min.
        let mut expected = Grid::new(s.terrain.x_size(), s.terrain.y_size(), f64::INFINITY);
        for t in &s.threats {
            let (region, field) =
                super::super::los::per_threat_masking(&s.terrain, s.cell_size_m, t);
            for (x, y) in region.cells() {
                let v = field.get(x, y);
                if v < expected[(x, y)] {
                    expected[(x, y)] = v;
                }
            }
        }
        for (x, y, &v) in masking.iter_cells() {
            let e = expected[(x, y)];
            assert!(
                v == e || (v.is_infinite() && e.is_infinite()),
                "mismatch at ({x},{y}): {v} vs {e}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = small_scenario(4);
        assert_eq!(terrain_masking_host(&s), terrain_masking_host(&s));
    }

    #[test]
    fn profile_is_memory_bound() {
        // §6: "The program is memory-bound, rather than compute-bound."
        // The signature on a cache-based machine is streaming traffic over
        // large arrays: a substantial fraction of all operations here,
        // versus essentially none in Threat Analysis.
        let (_, p) = terrain_masking_profile(&small_scenario(1));
        let t = p.total();
        assert!(
            t.stream_fraction() > 0.15,
            "Terrain Masking must stream heavily: {:.3}",
            t.stream_fraction()
        );
        let (_, ta) = crate::threat::sequential::threat_analysis_profile(
            &crate::threat::scenario::small_scenario(1),
        );
        assert!(
            ta.total().stream_fraction() < 0.02,
            "Threat Analysis must be compute-bound: {:.3}",
            ta.total().stream_fraction()
        );
        assert!(
            t.stream_fraction() > 10.0 * ta.total().stream_fraction(),
            "TM ({:.3}) must stream far more than TA ({:.3})",
            t.stream_fraction(),
            ta.total().stream_fraction()
        );
    }

    #[test]
    fn threat_order_does_not_matter() {
        // min is commutative/associative, so reversing the threat order
        // must give the identical grid.
        let mut s = small_scenario(5);
        let a = terrain_masking_host(&s);
        s.threats.reverse();
        let b = terrain_masking_host(&s);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_baseline_is_bit_identical_to_optimized() {
        for seed in 1..=6 {
            let s = small_scenario(seed);
            let opt = terrain_masking_host(&s);
            let refr = terrain_masking_reference(&s);
            for (x, y, &v) in opt.iter_cells() {
                assert_eq!(
                    v.to_bits(),
                    refr[(x, y)].to_bits(),
                    "seed {seed} cell ({x},{y}): {v} vs {}",
                    refr[(x, y)]
                );
            }
        }
    }

    #[test]
    fn into_entry_reuses_the_output_grid() {
        let s = small_scenario(2);
        let fresh = terrain_masking_host(&s);
        // A dirty, differently-shaped output grid must be fully reshaped
        // and overwritten.
        let mut out = Grid::new(3, 7, -1.0);
        terrain_masking_into(&s, &mut out, &mut NoRec);
        assert_eq!(out, fresh);
    }

    #[test]
    fn empty_threat_list_leaves_everything_unmasked() {
        let mut s = small_scenario(6);
        s.threats.clear();
        let masking = terrain_masking_host(&s);
        assert!(masking.as_slice().iter().all(|v| v.is_infinite()));
    }
}
