//! Differential tests of the two op counters against the recorded
//! programs they replace in the harness.
//!
//! `terrain::op_profile` / `terrain::ring_ops` count what the masking
//! programs record from ring geometry alone; `threat::pair_counts` /
//! `threat::op_profile` count what the stepwise engagement scan records
//! from a histogram of predicate exits. The `Rec`-generic kernels under an
//! `OpRecorder` are the oracle: equality here is exact (`OpCounts` is
//! integer-only), field by field, phase by phase.

use c3i::terrain::los::{self, raw_alt_for_cell, sensor_height, AltStore, Region, ScratchAlt};
use c3i::terrain::{self, GroundThreat, TerrainScenario, TerrainScenarioParams};
use c3i::threat::{self, Threat, ThreatScenario, Weapon};
use c3i::Grid;
use proptest::prelude::*;
use sthreads::{OpCounts, OpRecorder};

const N_BLOCKS: usize = 10;

fn bumpy(xs: usize, ys: usize) -> Grid<f64> {
    Grid::from_fn(xs, ys, |x, y| {
        (((x * 31 + y * 17) * 2654435761) % 997) as f64
    })
}

/// Grids from 1×1 up, threats at the interior, the four corners and the
/// edge midpoints, radii 0, 1, 2 and on past the far edge.
fn arb_region() -> impl Strategy<Value = (usize, usize, GroundThreat)> {
    (1usize..28, 1usize..28).prop_flat_map(|(xs, ys)| {
        let placements = prop_oneof![
            Just((0, 0)),
            Just((xs - 1, 0)),
            Just((0, ys - 1)),
            Just((xs - 1, ys - 1)),
            Just((xs / 2, 0)),
            Just((0, ys / 2)),
            Just((xs - 1, ys / 2)),
            Just((xs / 2, ys - 1)),
            (0..xs, 0..ys),
        ];
        let radii = prop_oneof![Just(0), Just(1), Just(2), 0..xs + ys + 1];
        (placements, radii).prop_map(move |((x, y), radius)| {
            let threat = GroundThreat {
                x,
                y,
                radius,
                mast_height: 12.0,
            };
            (xs, ys, threat)
        })
    })
}

/// Generation parameters across every power-of-two off-by-one up to 129,
/// with region caps from "no room for radius 1" (`r_cap = 0`) to the
/// paper's 5 % and beyond.
fn arb_terrain_params() -> impl Strategy<Value = TerrainScenarioParams> {
    let fraction = prop_oneof![Just(0.0), 1e-6..1e-3, Just(0.05), 0.05..1.0];
    (1usize..=129, 0usize..=60, any::<u64>(), fraction).prop_map(
        |(grid_size, n_threats, seed, max_region_fraction)| TerrainScenarioParams {
            grid_size,
            n_threats,
            seed,
            max_region_fraction,
            ..TerrainScenarioParams::default()
        },
    )
}

fn arb_terrain_scenario() -> impl Strategy<Value = TerrainScenario> {
    (1usize..28, 1usize..28).prop_flat_map(|(xs, ys)| {
        let threat = (0..xs, 0..ys, 0..xs + ys + 1).prop_map(|(x, y, radius)| GroundThreat {
            x,
            y,
            radius,
            mast_height: 12.0,
        });
        proptest::collection::vec(threat, 0..6).prop_map(move |threats| TerrainScenario {
            terrain: bumpy(xs, ys),
            threats,
            cell_size_m: 30.0,
        })
    })
}

/// What the fine-grained profile records for ring `k`: `raw_alt_for_cell`
/// per cell, then one store per cell.
fn recorded_ring(
    terrain: &Grid<f64>,
    region: &Region,
    h_s: f64,
    k: usize,
    store: &mut ScratchAlt,
) -> OpCounts {
    let mut r = OpRecorder::new();
    let ring = region.ring(k);
    let values: Vec<f64> = ring
        .iter()
        .map(|&(x, y)| {
            raw_alt_for_cell(
                terrain, 30.0, h_s, region.cx, region.cy, x, y, store, &mut r,
            )
        })
        .collect();
    for (&(x, y), v) in ring.iter().zip(values) {
        store.set(x, y, v);
        r.sstore(1);
    }
    r.counts()
}

/// Threat / weapon pairs around one base geometry, perturbed into every
/// shape the stepwise loop branches on: windows that are empty, start
/// late, run for thousands of steps, stay feasible through the last step;
/// a zero flight time (NaN flight fraction); weapons far out of range,
/// which the uninstrumented scan prunes and a counting recorder does not.
fn arb_pair() -> impl Strategy<Value = (Threat, Weapon)> {
    let threat = (
        0.0..2000.0f64,
        prop_oneof![Just(0.0), 1.0..40.0f64, 150.0..1500.0f64],
        20_000.0..220_000.0f64,
        prop_oneof![Just(0.0), 0.0..1.0f64, 1.0..1.5f64],
        0.0..100_000.0f64,
    )
        .prop_map(
            |(launch_time, flight_time, apex_height, detect_frac, y)| Threat {
                launch: (0.0, y),
                impact: (100_000.0, 50_000.0),
                launch_time,
                flight_time,
                apex_height,
                detect_delay: detect_frac * flight_time,
            },
        );
    let weapon = (
        (
            prop_oneof![50_000.0..100_000.0f64, Just(1.0e7)],
            0.0..100_000.0f64,
        ),
        500.0..10_000.0f64,
        20_000.0..400_000.0f64,
        prop_oneof![Just(0.0), 200.0..2_000.0f64],
        20_000.0..250_000.0f64,
        0.0..15.0f64,
    )
        .prop_map(
            |(pos, interceptor_speed, max_range, min_alt, max_alt, reaction_time)| Weapon {
                pos,
                interceptor_speed,
                max_range,
                min_alt,
                max_alt,
                reaction_time,
            },
        );
    (threat, weapon)
}

/// Where one end of a weapon's altitude band goes.
#[derive(Debug, Clone, Copy)]
enum BandEdge {
    /// `z` at the step `at` of the way through the pair's window, moved by
    /// `k · ε` with `ε = rise · 2^-j` (never under one ulp of `z`), `rise`
    /// being the altitude the threat gains or loses over that step.
    Step { at: f64, k: i32, j: i32 },
    /// Exactly the apex height.
    Apex,
    /// Exactly the ground.
    Ground,
    /// Half again the apex height: no step reaches it.
    AboveApex,
    /// Where the weapon strategy drew it.
    Drawn,
}

fn arb_band_edge() -> impl Strategy<Value = BandEdge> {
    prop_oneof![
        6 => (0.0..1.0f64, -3i32..=3, 0i32..=60)
            .prop_map(|(at, k, j)| BandEdge::Step { at, k, j }),
        1 => Just(BandEdge::Apex),
        1 => Just(BandEdge::Ground),
        1 => Just(BandEdge::AboveApex),
        3 => Just(BandEdge::Drawn),
    ]
}

fn place_band_edge(th: &Threat, edge: BandEdge, drawn: f64) -> f64 {
    let z_at = |step: u32| th.position(step as f64 * threat::TIME_STEP).map(|p| p.2);
    match edge {
        BandEdge::Step { at, k, j } => {
            let (first, last) = (th.first_step(), th.last_step());
            let step = first + (at * last.saturating_sub(first) as f64).round() as u32;
            let z = z_at(step).unwrap_or(0.0);
            let rise = z_at(step + 1)
                .or(step.checked_sub(1).and_then(z_at))
                .map_or(4.0 * th.apex_height / th.flight_time, |n| (n - z).abs());
            let eps = (rise * 2f64.powi(-j)).max(z.next_up() - z);
            z + f64::from(k) * eps
        }
        BandEdge::Apex => th.apex_height,
        BandEdge::Ground => 0.0,
        BandEdge::AboveApex => 1.5 * th.apex_height,
        BandEdge::Drawn => drawn,
    }
}

/// [`arb_pair`] with each end of the altitude band either as drawn or
/// placed by [`place_band_edge`], so the envelope test decides the steps
/// next to a crossing by less than a step's rise, down to one ulp.
fn arb_pair_at_the_band_edges() -> impl Strategy<Value = (Threat, Weapon)> {
    (arb_pair(), arb_band_edge(), arb_band_edge()).prop_map(|((th, mut w), lo, hi)| {
        w.min_alt = place_band_edge(&th, lo, w.min_alt);
        w.max_alt = place_band_edge(&th, hi, w.max_alt);
        if w.min_alt > w.max_alt {
            (w.min_alt, w.max_alt) = (w.max_alt, w.min_alt);
        }
        (th, w)
    })
}

/// Pairs whose ground track never comes within `max_range` of the weapon
/// (the ground distance is `reach × max_range`, mostly past the
/// uninstrumented scan's 1 % prune margin, sometimes inside it), with
/// the band's top just under the apex (the two runs merge over it), just
/// over it or far above it, its bottom near the ground, and detection
/// anywhere from launch to mid-flight, so the reaction step falls inside
/// a run.
fn arb_out_of_range_pair() -> impl Strategy<Value = (Threat, Weapon)> {
    let threat = (
        0.0..2000.0f64,
        prop_oneof![1.0..40.0f64, 150.0..1500.0f64],
        20_000.0..220_000.0f64,
        prop_oneof![Just(0.0), 0.0..0.5f64],
        0.0..100_000.0f64,
    )
        .prop_map(
            |(launch_time, flight_time, apex_height, detect_frac, y)| Threat {
                launch: (0.0, y),
                impact: (100_000.0, 50_000.0),
                launch_time,
                flight_time,
                apex_height,
                detect_delay: detect_frac * flight_time,
            },
        );
    // `max_alt` and `min_alt` as fractions of the apex height.
    let top = prop_oneof![
        (1i32..=40).prop_map(|j| 1.0 - 2f64.powi(-j)),
        (1i32..=40).prop_map(|j| 1.0 + 2f64.powi(-j)),
        1.5..10.0f64,
    ];
    let bottom = prop_oneof![Just(0.0), 0.0..4e-9f64, 0.0..0.02f64];
    let band = (top, bottom);
    let geometry = (
        prop_oneof![3 => 1.006..3.0f64, 1 => 0.99..1.006f64],
        prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
        20_000.0..400_000.0f64,
    );
    let timing = (500.0..10_000.0f64, 0.0..15.0f64);
    (threat, band, geometry, timing).prop_map(
        |(th, (top, bottom), (reach, along, max_range), (interceptor_speed, reaction_time))| {
            // The point `along` the ground track, moved off it at a right
            // angle: the track's nearest point to the weapon.
            let (ax, ay) = th.launch;
            let (dx, dy) = (th.impact.0 - ax, th.impact.1 - ay);
            let off = reach * max_range / dx.hypot(dy);
            let w = Weapon {
                pos: (ax + along * dx - dy * off, ay + along * dy + dx * off),
                interceptor_speed,
                max_range,
                min_alt: bottom * th.apex_height,
                max_alt: top * th.apex_height,
                reaction_time,
            };
            (th, w)
        },
    )
}

fn recorded_pair(threat: &Threat, weapon: &Weapon) -> OpCounts {
    let mut r = OpRecorder::new();
    threat::intervals_for_pair(0, 0, threat, weapon, &mut r, |_| {});
    r.counts()
}

/// The counters against all five recorded entry points on one scenario of
/// each problem.
fn assert_terrain_counter_matches(s: &TerrainScenario) {
    let counted = terrain::op_profile(s.terrain.x_size(), s.terrain.y_size(), &s.threats, N_BLOCKS);
    assert_eq!(counted.seq, terrain::terrain_masking_profile(s).1);
    assert_eq!(
        counted.coarse_per_threat,
        terrain::per_threat_counts(s, N_BLOCKS)
    );
    assert_eq!(counted.fine, terrain::terrain_masking_fine(s).1);
}

fn assert_threat_counter_matches(s: &ThreatScenario) {
    let counted = threat::op_profile(s);
    assert_eq!(counted.per_threat, threat::per_threat_counts(s));
    assert_eq!(counted.seq, threat::threat_analysis_profile(s).1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) Ring by ring the counter equals the cell-at-a-time recorder,
    /// and summed with the recurrence header it equals what the run
    /// sweeps record for the whole region.
    #[test]
    fn ring_counter_matches_recorded_recurrence((xs, ys, threat) in arb_region()) {
        let terrain = bumpy(xs, ys);
        let region = Region::of_checked(&threat, xs, ys);
        let h_s = sensor_height(&terrain, &threat);

        let mut store = ScratchAlt::new(&region, f64::INFINITY);
        let inner: Vec<_> = region.ring(0).into_iter().chain(region.ring(1)).collect();
        for &(x, y) in &inner {
            store.set(x, y, f64::NEG_INFINITY);
        }
        let mut total = OpRecorder::new();
        total.load(2);
        total.fp(1);
        total.sstore(inner.len() as u64);
        let mut total = total.counts();
        for k in 2..=region.radius {
            let (width, counted) = terrain::ring_ops(&region, k);
            prop_assert_eq!(width, region.ring_runs(k).len() as u64);
            prop_assert_eq!(
                counted,
                recorded_ring(&terrain, &region, h_s, k, &mut store),
                "ring {}", k
            );
            total.add(&counted);
        }

        let mut sweeps = OpRecorder::new();
        let mut swept = ScratchAlt::new(&region, f64::INFINITY);
        los::compute_raw_alts(&terrain, 30.0, &threat, &region, &mut swept, &mut sweeps);
        prop_assert_eq!(total, sweeps.counts());
    }

    /// (b) The exit-class histogram equals the stepwise loop under a
    /// recorder, pair by pair.
    #[test]
    fn pair_counter_matches_recorded_stepwise_scan((threat, weapon) in arb_pair()) {
        prop_assert_eq!(
            threat::pair_counts(&threat, &weapon),
            recorded_pair(&threat, &weapon)
        );
    }

    /// (c) Whole small terrain scenarios, clipping and overlap included.
    #[test]
    fn terrain_counter_matches_the_three_recorded_programs(s in arb_terrain_scenario()) {
        assert_terrain_counter_matches(&s);
    }

    /// (d) Seeking past the elevation draws gives the threats that
    /// synthesizing the terrain first gives, exactly.
    #[test]
    fn seeked_threats_equal_generated_threats(params in arb_terrain_params()) {
        let s = terrain::generate(params);
        prop_assert_eq!(
            terrain::generate_threats(params),
            (s.terrain.x_size(), s.terrain.y_size(), s.threats)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (e) (b) with the altitude band's ends placed on the threat's own
    /// altitudes: at a step's `z` give or take a fraction of its rise down
    /// to one ulp, exactly at the apex, on the ground and above the apex.
    #[test]
    fn pair_counter_matches_at_the_altitude_band_edges(
        (threat, weapon) in arb_pair_at_the_band_edges()
    ) {
        prop_assert_eq!(
            threat::pair_counts(&threat, &weapon),
            recorded_pair(&threat, &weapon)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (f) (b) on pairs that never come within range, where every step
    /// of the altitude window's runs exits at the altitude or the range
    /// test: the band's top just under, just over and far above the apex.
    #[test]
    fn pair_counter_matches_on_out_of_range_pairs(
        (threat, weapon) in arb_out_of_range_pair()
    ) {
        prop_assert_eq!(
            threat::pair_counts(&threat, &weapon),
            recorded_pair(&threat, &weapon)
        );
    }
}

#[test]
fn pair_counter_matches_on_the_shapes_the_loop_branches_on() {
    let base_t = Threat {
        launch: (0.0, 0.0),
        impact: (100_000.0, 0.0),
        launch_time: 10.0,
        flight_time: 200.0,
        apex_height: 80_000.0,
        detect_delay: 5.0,
    };
    let base_w = Weapon {
        pos: (90_000.0, 0.0),
        interceptor_speed: 3000.0,
        max_range: 60_000.0,
        min_alt: 1_000.0,
        max_alt: 30_000.0,
        reaction_time: 3.0,
    };
    let mut cases = vec![(base_t, base_w)];
    // Detection after impact: `first > last`, header only.
    let mut late = base_t;
    late.detect_delay = late.flight_time + 50.0;
    cases.push((late, base_w));
    // Zero flight time: the flight fraction is 0/0.
    let mut point = base_t;
    point.flight_time = 0.0;
    cases.push((point, base_w));
    // Feasible at the last step: the interval closes on the window's end,
    // so no step is evaluated twice for it.
    let mut tail = base_w;
    tail.min_alt = 0.0;
    cases.push((base_t, tail));
    // Out of range everywhere: pruned under `NoRec`, paid for step by
    // step here.
    let mut far = base_w;
    far.pos = (1.0e7, 1.0e7);
    cases.push((base_t, far));
    // Two intervals (ascent and descent through a narrow altitude band).
    cases.push((
        Threat {
            launch_time: 0.0,
            flight_time: 400.0,
            apex_height: 50_000.0,
            detect_delay: 0.0,
            ..base_t
        },
        Weapon {
            pos: (50_000.0, 0.0),
            interceptor_speed: 10_000.0,
            max_range: 100_000.0,
            min_alt: 20_000.0,
            max_alt: 40_000.0,
            reaction_time: 0.0,
        },
    ));
    // One feasible run of ~990 steps.
    cases.push((
        Threat {
            launch_time: 0.0,
            flight_time: 1000.0,
            apex_height: 25_000.0,
            detect_delay: 0.0,
            ..base_t
        },
        Weapon {
            pos: (50_000.0, 0.0),
            interceptor_speed: 10_000.0,
            max_range: 200_000.0,
            min_alt: 0.0,
            max_alt: 30_000.0,
            reaction_time: 0.0,
        },
    ));
    for (i, (th, w)) in cases.iter().enumerate() {
        let recorded = recorded_pair(th, w);
        assert_eq!(threat::pair_counts(th, w), recorded, "case {i}");
        // The cases must reach what they are named for.
        match i {
            1 => assert_eq!(recorded.instructions(), 4, "header only"),
            3 | 5 | 6 => assert!(recorded.stream_stores >= 4, "case {i} emits an interval"),
            4 => assert_eq!(recorded.stream_stores, 0),
            _ => {}
        }
    }
}

#[test]
fn counters_match_the_recorded_entry_points_on_small_scenarios() {
    for seed in 1..=4 {
        assert_terrain_counter_matches(&terrain::small_scenario(seed));
        assert_threat_counter_matches(&threat::small_scenario(seed));
    }
    // Degenerate shapes: no threats, a 1×1 and a 2×2 grid, a radius far
    // past a tiny grid (fully clipped rings are still phases).
    let tiny = |xs: usize, ys: usize, threats: Vec<GroundThreat>| TerrainScenario {
        terrain: bumpy(xs, ys),
        threats,
        cell_size_m: 30.0,
    };
    let at = |x, y, radius| GroundThreat {
        x,
        y,
        radius,
        mast_height: 15.0,
    };
    for s in [
        tiny(5, 4, vec![]),
        tiny(1, 1, vec![at(0, 0, 0), at(0, 0, 2)]),
        tiny(2, 2, vec![at(1, 0, 1), at(0, 1, 4)]),
        tiny(3, 3, vec![at(0, 0, 4)]),
    ] {
        assert_terrain_counter_matches(&s);
    }
    assert_threat_counter_matches(&ThreatScenario {
        threats: vec![],
        weapons: vec![],
    });
}
