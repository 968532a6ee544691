//! Threat Analysis, end to end: generate a benchmark-style scenario,
//! inspect the interception geometry, compare parallelization strategies
//! on the host, and sweep the Tera chunk count as in Table 6.
//!
//! ```text
//! cargo run --release --example threat_analysis
//! ```

use tera_c3i::c3i::threat::{self, ThreatScenarioParams};
use tera_c3i::eval_core::{Experiments, Workload, WorkloadScale};

fn main() {
    // A benchmark-sized scenario (1000 threats, as in the paper).
    let scenario = threat::generate(ThreatScenarioParams {
        n_threats: 1000,
        n_weapons: 25,
        seed: 7,
        ..Default::default()
    });

    let intervals = threat::threat_analysis_host(&scenario);
    threat::verify_intervals(&scenario, &intervals).expect("correctness test");

    // Interception statistics.
    let mut per_threat = vec![0usize; scenario.threats.len()];
    for iv in &intervals {
        per_threat[iv.threat as usize] += 1;
    }
    let undefended = per_threat.iter().filter(|&&n| n == 0).count();
    let max_windows = per_threat.iter().max().copied().unwrap_or(0);
    let longest = intervals
        .iter()
        .map(|iv| iv.t_end - iv.t_start + 1)
        .max()
        .unwrap_or(0);
    println!(
        "scenario: {} threats, {} weapons",
        scenario.threats.len(),
        scenario.weapons.len()
    );
    println!("  {} interception intervals found", intervals.len());
    println!(
        "  {} threats have no interception option (leakers)",
        undefended
    );
    println!("  busiest threat has {max_windows} interception windows");
    println!("  longest window lasts {longest} time steps");

    // Host-parallel scaling of Program 2 (real wall clock on this
    // machine — speedup is bounded by the cores actually available).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nhost scaling of the chunked program (Program 2) on {cores} available core(s):");
    let t_seq = {
        let t = std::time::Instant::now();
        let _ = threat::threat_analysis_host(&scenario);
        t.elapsed()
    };
    println!("  sequential: {t_seq:?}");
    for threads in [1, 2, 4, 8] {
        let t = std::time::Instant::now();
        let r = threat::threat_analysis_chunked_host(&scenario, threads, threads);
        let dt = t.elapsed();
        assert_eq!(r.flatten(), intervals);
        println!(
            "  {threads} threads: {dt:?} (speedup {:.2})",
            t_seq.as_secs_f64() / dt.as_secs_f64()
        );
    }

    // The Table 6 experiment: the Tera needs *hundreds* of chunks.
    println!("\nTera MTA chunk sweep (modeled, 2 processors; paper Table 6):");
    let exps = Experiments::new(Workload::build(WorkloadScale::Reduced));
    for chunks in [8, 16, 32, 64, 128, 256] {
        println!("  {chunks:>4} chunks -> {:6.1} s", exps.ta_tera(chunks, 2));
    }
}
