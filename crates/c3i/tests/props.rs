//! Property-based tests for the C3I benchmark implementations: every
//! parallel variant must agree with the sequential program on arbitrary
//! scenarios, and the physical invariants must hold for arbitrary inputs.

use c3i::terrain::{self, TerrainScenarioParams};
use c3i::threat::{self, canonical, verify_intervals, ThreatScenarioParams};
use proptest::prelude::*;

fn arb_threat_scenario() -> impl Strategy<Value = threat::ThreatScenario> {
    (1usize..20, 1usize..5, 0u64..1000).prop_map(|(n_threats, n_weapons, seed)| {
        threat::generate(ThreatScenarioParams {
            n_threats,
            n_weapons,
            seed,
            theater_m: 300_000.0,
            launch_window_s: 400.0,
        })
    })
}

fn arb_terrain_scenario() -> impl Strategy<Value = terrain::TerrainScenario> {
    (1usize..8, 0u64..1000, 32usize..96).prop_map(|(n_threats, seed, grid)| {
        terrain::generate(TerrainScenarioParams {
            grid_size: grid,
            n_threats,
            seed,
            ..Default::default()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunked Threat Analysis equals the sequential program for any
    /// scenario, chunk count, and thread count.
    #[test]
    fn chunked_threat_analysis_is_equivalent(
        s in arb_threat_scenario(),
        n_chunks in 1usize..40,
        n_threads in 1usize..6,
    ) {
        let seq = threat::threat_analysis(&s, &mut c3i::NoRec);
        let chunked = threat::threat_analysis_chunked_host(&s, n_chunks, n_threads);
        prop_assert_eq!(chunked.flatten(), seq);
    }

    /// Fine-grained Threat Analysis equals the sequential program as a set.
    #[test]
    fn fine_threat_analysis_is_equivalent(
        s in arb_threat_scenario(),
        n_threads in 1usize..6,
    ) {
        let seq = canonical(threat::threat_analysis(&s, &mut c3i::NoRec));
        let fine = canonical(threat::threat_analysis_fine_host(&s, n_threads).intervals);
        prop_assert_eq!(fine, seq);
    }

    /// The sequential Threat Analysis output always verifies.
    #[test]
    fn threat_analysis_output_verifies(s in arb_threat_scenario()) {
        let seq = threat::threat_analysis(&s, &mut c3i::NoRec);
        prop_assert!(verify_intervals(&s, &seq).is_ok());
    }

    /// All Terrain Masking variants agree bitwise for any scenario and
    /// any thread/block configuration.
    #[test]
    fn terrain_masking_variants_agree(
        s in arb_terrain_scenario(),
        n_threads in 1usize..5,
        n_blocks in 1usize..12,
    ) {
        let seq = terrain::terrain_masking(&s, &mut c3i::NoRec);
        let coarse = terrain::terrain_masking_coarse_host(&s, n_threads, n_blocks);
        prop_assert_eq!(&coarse, &seq);
        let fine = terrain::terrain_masking_fine_host(&s, n_threads);
        prop_assert_eq!(&fine, &seq);
    }

    /// The sequential Terrain Masking output always verifies.
    #[test]
    fn terrain_masking_output_verifies(s in arb_terrain_scenario()) {
        let m = terrain::terrain_masking(&s, &mut c3i::NoRec);
        prop_assert!(terrain::verify_masking(&s, &m).is_ok(), "{:?}",
            terrain::verify_masking(&s, &m));
    }

    /// Masking is monotone: a scenario with a superset of threats never has
    /// higher masking anywhere.
    #[test]
    fn terrain_masking_is_monotone_in_threats(s in arb_terrain_scenario()) {
        prop_assume!(s.threats.len() >= 2);
        let mut fewer = s.clone();
        fewer.threats.pop();
        let base = terrain::terrain_masking(&fewer, &mut c3i::NoRec);
        let more = terrain::terrain_masking(&s, &mut c3i::NoRec);
        for (x, y, &b) in base.iter_cells() {
            prop_assert!(more[(x, y)] <= b, "({x},{y}): {} > {}", more[(x, y)], b);
        }
    }

    /// Interval outputs are invariant under weapon-list rotation modulo
    /// reindexing — the per-pair computation must not depend on global
    /// state (the property the paper's parallelization relies on).
    #[test]
    fn pairs_are_independent(s in arb_threat_scenario()) {
        prop_assume!(s.weapons.len() >= 2);
        let base = canonical(threat::threat_analysis(&s, &mut c3i::NoRec));
        let mut rotated = s.clone();
        rotated.weapons.rotate_left(1);
        let n = rotated.weapons.len() as u32;
        let mut re = threat::threat_analysis(&rotated, &mut c3i::NoRec);
        for iv in &mut re {
            // weapon j in rotated was weapon (j+1) mod n originally.
            iv.weapon = (iv.weapon + 1) % n;
        }
        prop_assert_eq!(canonical(re), base);
    }
}

/// On flat ground every program masks nothing above the terrain, and the
/// ground keeps its own zero. The terrain is `−0` everywhere but the two
/// radar cells, which are `+0` under `+0` masts, so `h_s = +0` and every
/// raw altitude past ring 1 is `+0`: each merge clamps a `+0` (or, on
/// rings 0 and 1, a `−∞`) against a `−0` elevation, a tie `f64::max`
/// may settle either way. Every program must give the terrain's bits.
#[test]
fn a_ground_of_negative_zeros_is_masked_at_its_own_zero() {
    let mut grid = c3i::Grid::new(40, 40, -0.0);
    let threats = [(12, 15, 10), (25, 20, 12)].map(|(x, y, radius)| {
        grid[(x, y)] = 0.0;
        terrain::GroundThreat {
            x,
            y,
            radius,
            mast_height: 0.0,
        }
    });
    let s = terrain::TerrainScenario {
        terrain: grid,
        threats: threats.to_vec(),
        cell_size_m: 30.0,
    };
    assert!(s.validate().is_ok());
    let regions: Vec<_> = threats
        .iter()
        .map(|t| terrain::Region::of_checked(t, 40, 40))
        .collect();
    let programs = [
        ("Program 3", terrain::terrain_masking_host(&s)),
        (
            "Program 4, 1 worker",
            terrain::terrain_masking_coarse_host(&s, 1, 3),
        ),
        (
            "Program 4, 2 workers",
            terrain::terrain_masking_coarse_host(&s, 2, 3),
        ),
        ("fine, 1 worker", terrain::terrain_masking_fine_host(&s, 1)),
        ("fine, 2 workers", terrain::terrain_masking_fine_host(&s, 2)),
        ("recorded fine", terrain::terrain_masking_fine(&s).0),
        ("reference", terrain::terrain_masking_reference(&s)),
    ];
    let wrong: Vec<String> = programs
        .iter()
        .filter_map(|(name, masking)| {
            let cells = masking.iter_cells().filter(|&(x, y, &v)| {
                let want = if regions.iter().any(|r| r.contains(x, y)) {
                    s.terrain[(x, y)]
                } else {
                    f64::INFINITY
                };
                v.to_bits() != want.to_bits()
            });
            let n = cells.count();
            (n > 0).then(|| format!("{name}: {n} cells"))
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong:?}");
}
