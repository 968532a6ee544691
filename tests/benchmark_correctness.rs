//! Cross-crate correctness: every parallel program variant must produce
//! the sequential program's output on scenarios larger and more varied
//! than the per-crate unit tests use, and the C3IPBS-style output
//! verifiers must accept all of them.

use tera_c3i::c3i::terrain::{self, TerrainScenarioParams};
use tera_c3i::c3i::threat::{self, ThreatScenarioParams};

#[test]
fn threat_analysis_all_variants_agree_on_benchmark_sized_input() {
    let scenario = threat::generate(ThreatScenarioParams {
        n_threats: 1000,
        n_weapons: 10,
        seed: 99,
        ..Default::default()
    });
    let seq = threat::threat_analysis_host(&scenario);
    threat::verify_intervals(&scenario, &seq).expect("sequential verifies");

    for (chunks, threads) in [(4, 4), (64, 4), (256, 8), (1000, 3)] {
        let chunked = threat::threat_analysis_chunked_host(&scenario, chunks, threads);
        assert_eq!(chunked.flatten(), seq, "chunks={chunks} threads={threads}");
    }
    let fine = threat::threat_analysis_fine_host(&scenario, 8);
    assert_eq!(
        threat::canonical(fine.intervals),
        threat::canonical(seq.clone())
    );
}

#[test]
fn threat_analysis_counting_backends_do_not_change_results() {
    let scenario = threat::generate(ThreatScenarioParams {
        n_threats: 120,
        n_weapons: 6,
        seed: 5,
        ..Default::default()
    });
    let seq = threat::threat_analysis_host(&scenario);
    let (counted, _) = threat::threat_analysis_profile(&scenario);
    assert_eq!(counted, seq);
}

#[test]
fn terrain_masking_all_variants_agree_on_a_large_scenario() {
    let scenario = terrain::generate(TerrainScenarioParams {
        grid_size: 384,
        n_threats: 25,
        seed: 99,
        ..Default::default()
    });
    let seq = terrain::terrain_masking_host(&scenario);
    terrain::verify_masking(&scenario, &seq).expect("sequential verifies");

    for (threads, blocks) in [(1, 10), (4, 10), (8, 1), (3, 25)] {
        let coarse = terrain::terrain_masking_coarse_host(&scenario, threads, blocks);
        assert_eq!(coarse, seq, "threads={threads} blocks={blocks}");
    }
    for threads in [1, 4] {
        assert_eq!(terrain::terrain_masking_fine_host(&scenario, threads), seq);
    }
    let (counted_fine, _) = terrain::terrain_masking_fine(&scenario);
    assert_eq!(counted_fine, seq);
}

#[test]
fn edge_scenarios_do_not_break_any_variant() {
    // Threats at the terrain corners (maximally clipped regions).
    let mut scenario = terrain::generate(TerrainScenarioParams {
        grid_size: 96,
        n_threats: 4,
        seed: 3,
        ..Default::default()
    });
    let r = scenario.threats[0].radius;
    scenario.threats[0].x = 0;
    scenario.threats[0].y = 0;
    scenario.threats[1].x = 95;
    scenario.threats[1].y = 95;
    scenario.threats[2].x = 0;
    scenario.threats[2].y = 95;
    scenario.threats[3] = scenario.threats[2];
    scenario.threats[3].x = 95;
    scenario.threats[3].y = 0;
    scenario.threats[3].radius = r.max(48); // bigger than half the grid
    let seq = terrain::terrain_masking_host(&scenario);
    terrain::verify_masking(&scenario, &seq).expect("clipped corners verify");
    assert_eq!(terrain::terrain_masking_coarse_host(&scenario, 4, 10), seq);
    assert_eq!(terrain::terrain_masking_fine_host(&scenario, 4), seq);

    // A threat scenario where no weapon can reach anything.
    let mut ts = threat::small_scenario(8);
    for w in &mut ts.weapons {
        w.max_range = 1.0;
    }
    let seq = threat::threat_analysis_host(&ts);
    assert!(seq.is_empty());
    threat::verify_intervals(&ts, &seq).expect("empty output verifies");
    assert!(threat::threat_analysis_chunked_host(&ts, 8, 4)
        .flatten()
        .is_empty());
    assert!(threat::threat_analysis_fine_host(&ts, 4)
        .intervals
        .is_empty());
}

#[test]
fn overlapping_threat_regions_merge_correctly() {
    // Stack several radars on the same spot: the masking must equal the
    // min of the individual fields, and in particular be dominated by the
    // single-radar field.
    let mut scenario = terrain::generate(TerrainScenarioParams {
        grid_size: 128,
        n_threats: 3,
        seed: 21,
        ..Default::default()
    });
    for t in &mut scenario.threats {
        t.x = 64;
        t.y = 64;
        t.radius = 30;
    }
    scenario.threats[0].mast_height = 5.0;
    scenario.threats[1].mast_height = 15.0;
    scenario.threats[2].mast_height = 25.0;
    let all = terrain::terrain_masking_host(&scenario);
    terrain::verify_masking(&scenario, &all).expect("overlapping regions verify");

    let mut single = scenario.clone();
    single.threats.truncate(1);
    let one = terrain::terrain_masking_host(&single);
    for (x, y, &v) in all.iter_cells() {
        assert!(v <= one[(x, y)] + 1e-12, "min-merge violated at ({x},{y})");
    }
}
