//! Terrain Masking operation counts from ring geometry alone.
//!
//! Nothing the masking programs record depends on the terrain: every
//! annotation in the ring recurrence ([`super::los`]) and in the bulk
//! copy / reset / merge loops is selected by *where* a cell sits — which
//! ring, corner or edge, whether its scaled coordinate lands exactly on a
//! parent — and the one data-dependent branch (an unset parent) records
//! nothing. So the three measurements the harness needs of a scenario
//! (Program 3's profile, Program 4's per-threat counts, the fine-grained
//! phase list) follow from the grid size and the threat list, without
//! running a recurrence. Inside a ring the scaled coordinate lands on a
//! parent only at the radar's own coordinate, so a ring costs what its
//! runs (at most four) cost, not what its cells cost.
//!
//! The recorded programs stay the specification: [`op_profile`] must equal
//! [`terrain_masking_profile`](super::sequential::terrain_masking_profile),
//! [`per_threat_counts`](super::coarse::per_threat_counts) and
//! [`terrain_masking_fine`](super::fine::terrain_masking_fine) field by
//! field, and the differential tests and the fuzz runner hold it to that.

use super::coarse::Blocking;
use super::los::{Region, RingRun};
use super::scenario::GroundThreat;
use crate::counts::{ParallelPhase, PhasedProfile, Profile};
use sthreads::{OpCounts, OpRecorder};

/// All three Terrain Masking measurements of one scenario, as
/// [`op_profile`] counts them.
#[derive(Debug, Clone, PartialEq)]
pub struct TerrainOps {
    /// What `terrain_masking_profile` records (Program 3).
    pub seq: Profile,
    /// What `per_threat_counts` records (Program 4's work items).
    pub coarse_per_threat: Vec<OpCounts>,
    /// What `terrain_masking_fine` records (the barrier-separated phases).
    pub fine: PhasedProfile,
}

fn ops(record: impl FnOnce(&mut OpRecorder)) -> OpCounts {
    let mut r = OpRecorder::new();
    record(&mut r);
    r.counts()
}

/// Of the edge cells of ring `k` whose subordinate coordinate runs over
/// `sub`, how many interpolate from a single parent: those whose scaled
/// coordinate `c + d·(k−1)/k` (`d = s − c`, `c` the radar's coordinate on
/// that axis) has no fractional part. An edge cell's `|d|` is at most
/// `k − 1`, and `d·(k−1)/k = d − d/k` is an integer only for `d = 0`;
/// every other cell's exact coordinate lies at least `1/k` from an
/// integer. The recurrence computes it in `f64` (a rounded `(k−1)/k`, a
/// product, a sum), which moves it by at most `(3k + c)·2⁻⁵³`, less than
/// `1/k` while `k·(3k + c) < 2⁵³`. So inside a ring the answer is a
/// property of the offset alone: one cell if `sub` holds `c`, none
/// otherwise.
fn single_parent_cells(c: usize, sub: std::ops::RangeInclusive<usize>) -> u64 {
    u64::from(sub.contains(&c))
}

/// Whether [`single_parent_cells`] is exact on ring `k` around coordinate
/// `c`: `k·(3k + c) < 2⁵³`. `TerrainScenario::validate` bounds the grid
/// side so that every ring and coordinate a grid holds meets it.
pub(crate) const fn closed_form_is_exact(k: usize, c: usize) -> bool {
    (k as u128) * (3 * k as u128 + c as u128) < 1 << 53
}

/// Width and recorded operations of ring `k ≥ 2` of `region`: what the
/// row/column sweeps record over the ring's runs, which is also what
/// `raw_alt_for_cell` plus the store records cell by cell. Counted per
/// run, in O(1) each.
pub fn ring_ops(region: &Region, k: usize) -> (u64, OpCounts) {
    debug_assert!(k >= 2, "rings 0 and 1 are plain stores");
    let runs = region.ring_runs(k);
    debug_assert!(
        runs.is_empty() || closed_form_is_exact(k, region.cx.max(region.cy)),
        "ring {k} of {region:?} is past the grid side TerrainScenario::validate accepts"
    );
    let (mut cells, mut corners, mut single) = (0u64, 0u64, 0u64);
    for run in runs.iter() {
        cells += run.len() as u64;
        match run {
            // A row run's end cells are diagonal when they reach the
            // ring's corners; the rest are y-dominant edge cells.
            RingRun::Row { x0, x1, .. } => {
                let (has_l, has_r) = (x0 + k == region.cx, x1 == region.cx + k);
                corners += has_l as u64 + has_r as u64;
                let interior = x0 + has_l as usize..=x1 - has_r as usize;
                single += single_parent_cells(region.cx, interior);
            }
            // Corners belong to the rows: every column cell is an edge.
            RingRun::Col { y0, y1, .. } => {
                single += single_parent_cells(region.cy, y0..=y1);
            }
        }
    }
    let double = cells - corners - single;
    let parents = corners + single + 2 * double;
    let counts = ops(|r| {
        r.int(6 * cells); // offsets, ring index, parent arithmetic
        r.fp(7 * cells + 4 * (single + double)); // per cell; edge interpolation
        r.sload(2 * parents); // raw + terrain per parent
        r.fp(7 * parents); // distance, two slopes, max
        r.sstore(cells);
    });
    (cells, counts)
}

/// Count what the three Terrain Masking programs record on an
/// `x_size × y_size` grid with these `threats`, Program 4 merging under
/// `n_blocks × n_blocks` block locks. Threats must lie on the grid
/// (`TerrainScenario::validate`).
pub fn op_profile(
    x_size: usize,
    y_size: usize,
    threats: &[GroundThreat],
    n_blocks: usize,
) -> TerrainOps {
    let blocking = Blocking::new(x_size, y_size, n_blocks);
    let grid_cells = (x_size * y_size) as u64;
    let grid_init = ops(|r| r.sstore(grid_cells));
    let threat_record = ops(|r| {
        r.load(4); // threat record
        r.int(8); // region bounds
    });
    let recurrence_header = ops(|r| {
        r.load(2);
        r.fp(1);
    });

    let mut seq = grid_init;
    let mut coarse_per_threat = Vec::with_capacity(threats.len());
    let mut fine_serial = OpCounts::default();
    let mut phases = vec![ParallelPhase {
        width: grid_cells,
        ops: grid_init,
    }];

    for threat in threats {
        let region = Region::of_checked(threat, x_size, y_size);
        let n = region.n_cells() as u64;
        let copy = ops(|r| {
            r.sload(n);
            r.sstore(n);
        });
        let reset = ops(|r| r.sstore(n));
        let merge = ops(|r| {
            r.sload(3 * n); // masking, temp, terrain
            r.fp(2 * n); // clamp + min
            r.sstore(n);
        });
        let inner = (region.ring_runs(0).len() + region.ring_runs(1).len()) as u64;
        let inner_ops = ops(|r| r.sstore(inner));

        fine_serial.add(&threat_record);
        phases.extend([
            ParallelPhase {
                width: n,
                ops: copy,
            },
            ParallelPhase {
                width: n,
                ops: reset,
            },
            ParallelPhase {
                width: inner,
                ops: inner_ops,
            },
        ]);
        // One phase per ring, fully clipped (zero-width) rings included:
        // the barrier is there whether or not a cell survives clipping.
        let mut recurrence = recurrence_header.merged(&inner_ops);
        for k in 2..=region.radius {
            let (width, ops) = ring_ops(&region, k);
            recurrence.add(&ops);
            phases.push(ParallelPhase { width, ops });
        }
        phases.push(ParallelPhase {
            width: n,
            ops: merge,
        });

        for part in [threat_record, copy, reset, recurrence, merge] {
            seq.add(&part);
        }

        let locks = blocking.blocks_overlapping(&region).len() as u64;
        let claim = ops(|r| {
            r.sync(1); // claim from the work queue (fetch-add)
            r.sync(2 * locks); // lock + unlock per overlapped block
        });
        coarse_per_threat.push(
            [claim, threat_record, reset, recurrence, merge]
                .into_iter()
                .sum(),
        );
    }

    TerrainOps {
        seq: Profile::sequential(OpCounts::default(), seq),
        coarse_per_threat,
        fine: PhasedProfile::new(fine_serial, phases),
    }
}

#[cfg(test)]
mod tests {
    use super::single_parent_cells;
    use proptest::prelude::*;
    use std::ops::RangeInclusive;

    /// The oracle: which cells of `sub` on ring `k` around coordinate `c`
    /// interpolate from a single parent, decided cell by cell with the
    /// recurrence's own `f64` expression (`raw_alt_for_cell`'s scaled
    /// coordinate, and its `w == 0.0`).
    fn single_parent_cells_per_cell(c: usize, sub: RangeInclusive<usize>, k: usize) -> u64 {
        let scale = (k - 1) as f64 / k as f64;
        sub.filter(|&s| {
            let d = s as isize - c as isize;
            let f = c as f64 + d as f64 * scale;
            f - f.floor() == 0.0
        })
        .count() as u64
    }

    /// The interior of ring `k`'s edge around `c`, `|s − c| ≤ k − 1`,
    /// clipped at the grid's low edge (0) and, when `len` is `Some`, to
    /// `len` cells starting `skip` cells in: any contiguous piece of an
    /// edge run that clipping can leave.
    fn edge_interior(c: usize, k: usize, skip: usize, len: Option<usize>) -> RangeInclusive<usize> {
        let (lo, hi) = (c.saturating_sub(k - 1), c + (k - 1));
        let lo = (lo + skip).min(hi);
        let hi = len.map_or(hi, |len| (lo + len).min(hi));
        lo..=hi
    }

    fn arb_ring() -> impl Strategy<Value = (usize, usize)> {
        let k = prop_oneof![2usize..64, 64usize..4096, 4096usize..=1 << 20];
        let c = prop_oneof![0usize..64, 0usize..=1 << 20];
        (k, c)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole edges, clipped only where the grid's low edge cuts them.
        #[test]
        fn closed_form_equals_the_oracle_on_unclipped_edges((k, c) in arb_ring()) {
            let sub = edge_interior(c, k, 0, None);
            prop_assert_eq!(
                single_parent_cells(c, sub.clone()),
                single_parent_cells_per_cell(c, sub, k)
            );
        }

        /// Pieces of edges, with and without the radar's coordinate.
        #[test]
        fn closed_form_equals_the_oracle_on_clipped_edges(
            (k, c) in arb_ring(),
            skip in prop_oneof![Just(0usize), 0usize..=1 << 21],
            len in 0usize..4096,
        ) {
            let sub = edge_interior(c, k, skip, Some(len));
            prop_assert_eq!(
                single_parent_cells(c, sub.clone()),
                single_parent_cells_per_cell(c, sub, k)
            );
        }
    }

    /// Every ring of every radar coordinate a paper-scale grid can hold,
    /// cell by cell (≈ 1.1 G cells; ignored unoptimized, `ci.sh` runs it
    /// with `--release`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive: run with --release")]
    fn closed_form_equals_the_oracle_on_every_paper_ring() {
        for k in 2..=1100 {
            for c in 0..1100 {
                let sub = edge_interior(c, k, 0, None);
                assert_eq!(
                    single_parent_cells(c, sub.clone()),
                    single_parent_cells_per_cell(c, sub, k),
                    "ring {k} around {c}"
                );
            }
        }
    }
}
