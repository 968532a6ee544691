//! Terrain Masking, end to end: synthesize terrain, place radar threats,
//! compute the maximum-safe-altitude map with all three program variants
//! and check they agree.
//!
//! ```text
//! cargo run --release --example terrain_masking
//! ```

use tera_c3i::c3i::terrain::{self, TerrainScenarioParams};
use tera_c3i::eval_core::{Experiments, Workload, WorkloadScale};

fn main() {
    let scenario = terrain::generate(TerrainScenarioParams {
        grid_size: 192,
        n_threats: 10,
        seed: 11,
        ..Default::default()
    });
    println!(
        "terrain {}x{} ({}m cells, relief up to {:.0}m), {} radar threats",
        scenario.terrain.x_size(),
        scenario.terrain.y_size(),
        scenario.cell_size_m,
        scenario
            .terrain
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0, f64::max),
        scenario.threats.len()
    );

    // All three variants, bit-identical.
    let t = std::time::Instant::now();
    let masking = terrain::terrain_masking_host(&scenario);
    let t_seq = t.elapsed();
    let t = std::time::Instant::now();
    let coarse = terrain::terrain_masking_coarse_host(&scenario, 4, 10);
    let t_coarse = t.elapsed();
    let fine = terrain::terrain_masking_fine_host(&scenario, 4);
    assert_eq!(coarse, masking);
    assert_eq!(fine, masking);
    terrain::verify_masking(&scenario, &masking).expect("correctness test");
    println!("sequential {t_seq:?}; coarse (4 threads, 10x10 block locks) {t_coarse:?}; all bit-identical");

    // The paper's Section 6 punchline: the memory-per-thread problem.
    let region_cells: usize = scenario
        .threats
        .iter()
        .map(|t| {
            let r = terrain::Region::of_checked(
                t,
                scenario.terrain.x_size(),
                scenario.terrain.y_size(),
            );
            r.n_cells()
        })
        .max()
        .unwrap_or(0);
    println!(
        "\nlargest region of influence: {} cells ({:.1}% of the terrain)",
        region_cells,
        100.0 * region_cells as f64 / scenario.terrain.len() as f64
    );
    println!(
        "coarse-grained parallelization needs one such temp array PER THREAD:\n\
         fine for 16 Exemplar threads, hopeless for the hundreds of streams a Tera wants\n\
         -> the Tera version parallelizes the inner ring loops instead (one temp total)."
    );

    // Modeled platform comparison (Table 12's manual rows).
    let exps = Experiments::new(Workload::build(WorkloadScale::Reduced));
    println!("\nmodeled benchmark-scale times (paper Table 12, manual parallelization):");
    println!(
        "  Pentium Pro (4 proc, coarse): {:6.1} s",
        exps.tm_conv_parallel(&exps.cal.ppro, 4)
    );
    println!(
        "  Exemplar   (16 proc, coarse): {:6.1} s",
        exps.tm_conv_parallel(&exps.cal.exemplar, 16)
    );
    println!("  Tera MTA    (2 proc, fine):   {:6.1} s", exps.tm_tera(2));
}
