//! Quickstart: run both C3I benchmarks sequentially and in parallel on
//! the host, verify the outputs, and ask the calibrated models what the
//! same programs would cost on the paper's four machines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tera_c3i::c3i::{terrain, threat};
use tera_c3i::eval_core::{Experiments, Workload, WorkloadScale};

fn main() {
    // ── 1. Threat Analysis ──────────────────────────────────────────────
    let scenario = threat::small_scenario(42);
    println!(
        "Threat Analysis: {} threats x {} weapons",
        scenario.threats.len(),
        scenario.weapons.len()
    );

    let t0 = std::time::Instant::now();
    let sequential = threat::threat_analysis_host(&scenario);
    println!(
        "  sequential (Program 1): {} intervals in {:?}",
        sequential.len(),
        t0.elapsed()
    );

    let t0 = std::time::Instant::now();
    let chunked = threat::threat_analysis_chunked_host(&scenario, 16, 4);
    println!(
        "  chunked (Program 2, 16 chunks / 4 threads): {} intervals in {:?}",
        chunked.flatten().len(),
        t0.elapsed()
    );
    assert_eq!(
        chunked.flatten(),
        sequential,
        "parallel must equal sequential"
    );

    let fine = threat::threat_analysis_fine_host(&scenario, 4);
    assert_eq!(
        threat::canonical(fine.intervals),
        threat::canonical(sequential.clone()),
        "fine-grained (sync-variable) variant must match as a set"
    );
    threat::verify_intervals(&scenario, &sequential).expect("C3IPBS correctness test");
    println!("  all three variants agree; correctness test passed");

    // ── 2. Terrain Masking ──────────────────────────────────────────────
    let scenario = terrain::small_scenario(42);
    println!(
        "\nTerrain Masking: {}x{} terrain, {} threats",
        scenario.terrain.x_size(),
        scenario.terrain.y_size(),
        scenario.threats.len()
    );
    let masking = terrain::terrain_masking_host(&scenario);
    let coarse = terrain::terrain_masking_coarse_host(&scenario, 4, 10);
    let fine = terrain::terrain_masking_fine_host(&scenario, 4);
    assert_eq!(
        coarse, masking,
        "coarse (block-locked) variant must be bit-identical"
    );
    assert_eq!(
        fine, masking,
        "fine (ring-parallel) variant must be bit-identical"
    );
    terrain::verify_masking(&scenario, &masking).expect("C3IPBS correctness test");
    let covered = masking.as_slice().iter().filter(|v| v.is_finite()).count();
    println!(
        "  masking computed; {}% of terrain under threat influence; all variants bit-identical",
        100 * covered / masking.len()
    );

    // ── 3. What would this cost on the paper's machines? ───────────────
    println!("\nCalibrating machine models on the reduced workload...");
    let exps = Experiments::new(Workload::build(WorkloadScale::Reduced));
    let ta = exps.ta_seq_secs();
    println!("  sequential Threat Analysis (modeled, benchmark scale):");
    println!(
        "    Alpha {:.0}s | Pentium Pro {:.0}s | Exemplar {:.0}s | Tera MTA {:.0}s",
        ta[0], ta[1], ta[2], ta[3]
    );
    println!(
        "  the Tera runs one stream at ~5% utilization — {:.0}x slower than the Alpha,",
        ta[3] / ta[0]
    );
    println!(
        "  but multithreaded (256 chunks) it needs only {:.0}s on one processor.",
        exps.ta_tera(256, 1)
    );
}
