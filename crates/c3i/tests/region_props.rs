//! Property tests for the region-of-influence geometry under heavy
//! clipping, and for the equivalence of the two `AltStore` backings.
//!
//! These pin the invariants the fuzzer's degenerate-terrain cases lean
//! on: corner threats with radii far past the grid edge must still yield
//! rings that exactly partition the clipped region, and Program 4's
//! bounding-box scratch array must be indistinguishable from a
//! full-grid store for any line-of-sight computation.

use c3i::terrain::los::{
    compute_raw_alts, raw_alt_for_cell, sensor_height, AltStore, KernelScratch, Region, RingSweep,
    ScratchAlt,
};
use c3i::terrain::GroundThreat;
use c3i::Grid;
use c3i::NoRec;
use proptest::prelude::*;
use std::collections::HashSet;

/// Grid shapes plus threat placements that force clipping on one or more
/// sides: corners, edge midpoints, and interior cells, with radii from 0
/// up to twice the grid perimeter bound.
fn arb_clipped_region() -> impl Strategy<Value = (usize, usize, GroundThreat)> {
    (1usize..24, 1usize..24).prop_flat_map(|(xs, ys)| {
        let placements = prop_oneof![
            Just((0, 0)),
            Just((xs - 1, 0)),
            Just((0, ys - 1)),
            Just((xs - 1, ys - 1)),
            Just((xs / 2, 0)),
            Just((0, ys / 2)),
            (0..xs, 0..ys),
        ];
        (placements, 0usize..2 * (xs + ys)).prop_map(move |((x, y), radius)| {
            (
                xs,
                ys,
                GroundThreat {
                    x,
                    y,
                    radius,
                    mast_height: 10.0,
                },
            )
        })
    })
}

/// Degenerate terrains the fuzzer generates: all-flat, a single spike,
/// and a cliff wall splitting the grid.
fn arb_degenerate_terrain() -> impl Strategy<Value = Grid<f64>> {
    (2usize..24, 2usize..24).prop_flat_map(|(xs, ys)| {
        prop_oneof![
            // All-flat: every slope comparison ties.
            (0.0..500.0f64).prop_map(move |h| Grid::new(xs, ys, h)),
            // Single spike on flat ground.
            (0..xs, 0..ys, 500.0..2000.0f64).prop_map(move |(sx, sy, peak)| Grid::from_fn(
                xs,
                ys,
                |x, y| {
                    if (x, y) == (sx, sy) {
                        peak
                    } else {
                        25.0
                    }
                }
            )),
            // Cliff wall: a step function at column `wall`.
            (0..xs, 900.0..1500.0f64).prop_map(move |(wall, hi)| Grid::from_fn(xs, ys, |x, _| {
                if x < wall {
                    10.0
                } else {
                    hi
                }
            })),
        ]
    })
}

/// Terrain with no two equal slopes to speak of, so an interpolation
/// weight or a parent picked wrongly shows in the bits.
fn arb_bumpy_terrain() -> impl Strategy<Value = Grid<f64>> {
    (8usize..48, 8usize..48, 1usize..1000).prop_map(|(xs, ys, salt)| {
        Grid::from_fn(xs, ys, |x, y| {
            (((x * 31 + y * 17 + salt) * 2654435761) % 997) as f64
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rings 0..=radius exactly partition the clipped region: every
    /// surviving cell appears in exactly one ring, at exactly its
    /// Chebyshev distance, no matter how hard the grid edge clips.
    #[test]
    fn rings_partition_the_clipped_region((xs, ys, threat) in arb_clipped_region()) {
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for k in 0..=region.radius {
            for (x, y) in region.ring(k) {
                prop_assert!(x < xs && y < ys, "ring {k} leaked off-grid cell ({x},{y})");
                let d = x.abs_diff(threat.x).max(y.abs_diff(threat.y));
                prop_assert_eq!(d, k, "cell ({}, {}) in ring {} has distance {}", x, y, k, d);
                prop_assert!(seen.insert((x, y)), "cell ({}, {}) appears twice", x, y);
            }
        }
        let all: HashSet<(usize, usize)> = region.cells().collect();
        prop_assert_eq!(seen, all, "rings must cover exactly the region's cells");
    }

    /// Ring enumeration is deterministic — the replay guarantee the
    /// fuzzer's bit-identical comparisons rest on.
    #[test]
    fn ring_order_is_deterministic((xs, ys, threat) in arb_clipped_region()) {
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");
        for k in 0..=region.radius {
            prop_assert_eq!(region.ring(k), region.ring(k));
        }
    }

    /// The run-based ring representation is exactly the historical ring:
    /// at most four contiguous edge runs whose flattened cells are the
    /// same set as `reference::ring`, in the canonical run order that
    /// `Region::ring` now produces — under every clipping the placement
    /// strategy can force, including radii past the grid.
    #[test]
    fn ring_runs_flatten_to_the_historical_ring((xs, ys, threat) in arb_clipped_region()) {
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");
        for k in 0..=region.radius {
            let runs = region.ring_runs(k);
            prop_assert!(runs.n_runs() <= 4, "ring {k} produced {} runs", runs.n_runs());
            let flat: Vec<(usize, usize)> = runs.cells().collect();
            prop_assert_eq!(&flat, &region.ring(k), "ring {} order diverged", k);
            let as_set: HashSet<(usize, usize)> = flat.iter().copied().collect();
            let historical: HashSet<(usize, usize)> =
                c3i::terrain::los::reference::ring(&region, k).into_iter().collect();
            prop_assert_eq!(as_set, historical, "ring {} cell set diverged", k);
            prop_assert_eq!(runs.len(), flat.len());
            // Each run really is contiguous along its axis.
            for run in runs.iter() {
                let cells: Vec<_> = run.cells().collect();
                for w in cells.windows(2) {
                    let contiguous = (w[0].0 == w[1].0 && w[0].1 + 1 == w[1].1)
                        || (w[0].1 == w[1].1 && w[0].0 + 1 == w[1].0);
                    prop_assert!(contiguous, "run cells not contiguous: {:?}", w);
                }
            }
        }
    }

    /// A radius past both grid dimensions clips to the whole grid: the
    /// region degenerates to the full rectangle.
    #[test]
    fn oversized_radius_covers_the_whole_grid(
        (xs, ys) in (1usize..16, 1usize..16),
        (fx, fy) in (0usize..16, 0usize..16),
    ) {
        let threat = GroundThreat {
            x: fx.min(xs - 1),
            y: fy.min(ys - 1),
            radius: xs + ys,
            mast_height: 0.0,
        };
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");
        prop_assert_eq!(region.cells().count(), xs * ys);
    }

    /// Program 4's bounding-box scratch store computes bit-identical raw
    /// altitudes to a full-grid store on degenerate terrains, for any
    /// clipped region — the two `AltStore` backings are interchangeable.
    #[test]
    fn scratch_store_matches_full_grid_store(
        terrain in arb_degenerate_terrain(),
        (tx, ty, radius) in (0usize..24, 0usize..24, 0usize..64),
        cell_size in prop_oneof![Just(1.0f64), Just(30.0), Just(100.0), Just(1000.0)],
    ) {
        let (xs, ys) = (terrain.x_size(), terrain.y_size());
        let threat = GroundThreat {
            x: tx.min(xs - 1),
            y: ty.min(ys - 1),
            radius,
            mast_height: 12.0,
        };
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");

        let mut scratch = ScratchAlt::new(&region, f64::INFINITY);
        compute_raw_alts(&terrain, cell_size, &threat, &region, &mut scratch, &mut NoRec);

        let mut full: Grid<f64> = Grid::new(xs, ys, f64::INFINITY);
        compute_raw_alts(&terrain, cell_size, &threat, &region, &mut full, &mut NoRec);

        for (x, y) in region.cells() {
            let a = AltStore::get(&scratch, x, y);
            let b = AltStore::get(&full, x, y);
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "cell ({}, {}): scratch {:?} != grid {:?}", x, y, a, b
            );
        }
    }

    /// The sweep kernels compute any sub-range of a run to the same bits:
    /// for every ring, every run and **every cut point** `c`, cells
    /// `[0, c)` followed by `[c, len)` equal the whole run, and both equal
    /// `raw_alt_for_cell` cell by cell — corners at the run ends included,
    /// whichever side of a cut they fall on. This is what lets the
    /// fine-grained variant hand a ring to its threads as arcs.
    #[test]
    fn a_run_cut_anywhere_equals_the_whole_run_and_the_per_cell_recurrence(
        terrain in arb_bumpy_terrain(),
        (fx, fy) in (0.0..1.0f64, 0.0..1.0f64),
        corner in 0usize..5,
        radius in 2usize..=40,
        cell_size in prop_oneof![Just(30.0f64), Just(100.0)],
    ) {
        let (xs, ys) = (terrain.x_size(), terrain.y_size());
        // Four grid corners (rings clipped to one quadrant, row runs that
        // end in a corner cell on one side only) or anywhere.
        let (x, y) = match corner {
            0 => (0, 0),
            1 => (xs - 1, 0),
            2 => (0, ys - 1),
            3 => (xs - 1, ys - 1),
            _ => ((fx * xs as f64) as usize, (fy * ys as f64) as usize),
        };
        let threat = GroundThreat { x, y, radius, mast_height: 12.0 };
        let region = Region::of(&threat, xs, ys).expect("threat is on the grid");
        let h_s = sensor_height(&terrain, &threat);

        // The finished recurrence: ring k − 1 is in place for every k.
        let mut store = ScratchAlt::new(&region, f64::INFINITY);
        compute_raw_alts(&terrain, cell_size, &threat, &region, &mut store, &mut NoRec);

        let mut kern = KernelScratch::new();
        for k in 2..=region.radius {
            kern.fill(k, cell_size);
            let sweep = RingSweep {
                terrain: &terrain, h_s, region: &region, k, store: &store, kern: &kern,
            };
            for run in region.ring_runs(k).iter() {
                let bits = |range: std::ops::Range<usize>| {
                    let mut out = Vec::with_capacity(range.len());
                    sweep.run(run, range, |v| out.push(v.to_bits()), &mut NoRec);
                    out
                };
                let whole = bits(0..run.len());
                let per_cell: Vec<u64> = run
                    .cells()
                    .map(|(x, y)| {
                        raw_alt_for_cell(
                            &terrain, cell_size, h_s, region.cx, region.cy, x, y, &store,
                            &mut NoRec,
                        )
                        .to_bits()
                    })
                    .collect();
                prop_assert_eq!(&whole, &per_cell, "ring {} run {:?}", k, run);
                // What the recurrence itself stored for these cells.
                let stored: Vec<u64> =
                    run.cells().map(|(x, y)| store.get(x, y).to_bits()).collect();
                prop_assert_eq!(&whole, &stored, "ring {} run {:?}", k, run);
                for c in 1..run.len() {
                    let mut cut = bits(0..c);
                    cut.extend(bits(c..run.len()));
                    prop_assert_eq!(&cut, &whole, "ring {} run {:?} cut at {}", k, run, c);
                }
            }
        }
    }
}
