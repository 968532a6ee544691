//! The differential runner: one scenario through the whole matrix.
//!
//! For a Terrain Masking case the sequential Program 3 is the oracle and
//! is itself re-verified with the independent min-recomposition verifier;
//! the coarse (Program 4) and fine (ring recurrence) variants must then
//! reproduce the oracle's grid bit-for-bit at every worker count. For a
//! Threat Analysis case Program 1 is the oracle (re-verified for
//! feasibility/maximality/completeness); Program 1 under a recorder, which
//! prunes no pair, and the chunked Program 2 must both produce the
//! identical interval list, and the fine-grained fetch-add
//! program must match as a canonical-sorted set (its slot order is
//! inherently racy — the paper's §5 point).
//!
//! Both kinds also run the op-count differential: the recorder-free
//! counters the harness builds its workload from (`terrain::op_profile`,
//! `threat::op_profile`) must equal the recorded programs, field by field.

use crate::gen::FuzzCase;
use c3i::terrain;
use c3i::threat;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker counts exercised for every variant.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Chunk count used for the chunked Threat Analysis variant (Program 2
/// runs more chunks than workers on the Tera; 8 chunks over 1/2/8 workers
/// covers chunks-per-worker ratios of 8, 4, and 1).
pub const N_CHUNKS: usize = 8;

/// Block-lock grid used for the coarse Terrain Masking variant.
pub const N_BLOCKS: usize = 10;

/// One divergence from the oracle (or a panic / oracle self-check
/// failure), attributed to the variant configuration that produced it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Failure {
    /// Which run diverged, e.g. `"terrain coarse x8"`.
    pub config: String,
    /// First observed mismatch or the captured panic message.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.detail)
    }
}

/// Result of running one case through the differential matrix.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Every variant matched the oracle everywhere.
    Passed,
    /// The scenario failed validation and was skipped gracefully — the
    /// campaign continues (this is the path a malformed corpus file or a
    /// shrinker-mangled intermediate takes).
    Rejected(String),
    /// A variant diverged from the oracle, a run panicked, or the oracle
    /// failed its own independent verifier.
    Failed(Failure),
}

impl CaseOutcome {
    /// True for [`CaseOutcome::Failed`].
    pub fn is_failure(&self) -> bool {
        matches!(self, CaseOutcome::Failed(_))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into a [`Failure`] for `config`.
fn guarded<T>(config: &str, f: impl FnOnce() -> T) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| Failure {
        config: config.to_string(),
        detail: format!("panicked: {}", panic_message(p)),
    })
}

/// First cell where two masking grids differ bitwise, as a report string.
fn first_grid_diff(seq: &c3i::Grid<f64>, got: &c3i::Grid<f64>) -> Option<String> {
    if (got.x_size(), got.y_size()) != (seq.x_size(), seq.y_size()) {
        return Some(format!(
            "grid shape {}x{} != oracle {}x{}",
            got.x_size(),
            got.y_size(),
            seq.x_size(),
            seq.y_size()
        ));
    }
    for (x, y, &v) in seq.iter_cells() {
        let w = got[(x, y)];
        if v.to_bits() != w.to_bits() {
            return Some(format!("cell ({x}, {y}): oracle {v:?} != variant {w:?}"));
        }
    }
    None
}

/// Run one op-counter differential: `diff` names the first measurement on
/// which the counted and the recorded profiles disagree, if any.
fn counter_arm(config: &str, diff: impl FnOnce() -> Option<&'static str>) -> Option<Failure> {
    match guarded(config, diff) {
        Err(f) => Some(f),
        Ok(None) => None,
        Ok(Some(what)) => Some(Failure {
            config: config.to_string(),
            detail: format!("counted {what} != recorded {what}"),
        }),
    }
}

/// Run one fuzz case through the full differential matrix.
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    match case {
        FuzzCase::Terrain(s) => run_terrain_case(s),
        FuzzCase::Threat(s) => run_threat_case(s),
    }
}

fn run_terrain_case(s: &terrain::TerrainScenario) -> CaseOutcome {
    if let Err(e) = s.validate() {
        return CaseOutcome::Rejected(e.to_string());
    }

    // Oracle: sequential Program 3, re-checked by the independent
    // per-threat min-recomposition verifier.
    let seq = match guarded("terrain sequential oracle", || {
        terrain::terrain_masking_host(s)
    }) {
        Ok(g) => g,
        Err(f) => return CaseOutcome::Failed(f),
    };
    if let Err(e) = terrain::verify_masking(s, &seq) {
        return CaseOutcome::Failed(Failure {
            config: "terrain oracle self-check".to_string(),
            detail: e.to_string(),
        });
    }

    // Kernel differential: the pinned scalar baseline (historical
    // fresh-allocation, cell-at-a-time recurrence) must agree bitwise
    // with the run-based arena kernels the oracle now uses.
    {
        let config = "terrain reference baseline";
        match guarded(config, || terrain::terrain_masking_reference(s)) {
            Err(f) => return CaseOutcome::Failed(f),
            Ok(got) => {
                if let Some(d) = first_grid_diff(&seq, &got) {
                    return CaseOutcome::Failed(Failure {
                        config: config.to_string(),
                        detail: d,
                    });
                }
            }
        }
    }

    // Counter differential: ring geometry alone must reproduce what the
    // three recorded programs charge on this grid and threat list.
    let diff = counter_arm("terrain op counter", || {
        let (xs, ys) = (s.terrain.x_size(), s.terrain.y_size());
        let counted = terrain::op_profile(xs, ys, &s.threats, N_BLOCKS);
        if counted.seq != terrain::terrain_masking_profile(s).1 {
            Some("sequential profile")
        } else if counted.coarse_per_threat != terrain::per_threat_counts(s, N_BLOCKS) {
            Some("coarse per-threat counts")
        } else if counted.fine != terrain::terrain_masking_fine(s).1 {
            Some("fine phase list")
        } else {
            None
        }
    });
    if let Some(f) = diff {
        return CaseOutcome::Failed(f);
    }

    for workers in WORKER_COUNTS {
        let config = format!("terrain coarse x{workers}");
        match guarded(&config, || {
            terrain::terrain_masking_coarse_host(s, workers, N_BLOCKS)
        }) {
            Err(f) => return CaseOutcome::Failed(f),
            Ok(got) => {
                if let Some(d) = first_grid_diff(&seq, &got) {
                    return CaseOutcome::Failed(Failure { config, detail: d });
                }
            }
        }

        let config = format!("terrain fine x{workers}");
        match guarded(&config, || terrain::terrain_masking_fine_host(s, workers)) {
            Err(f) => return CaseOutcome::Failed(f),
            Ok(got) => {
                if let Some(d) = first_grid_diff(&seq, &got) {
                    return CaseOutcome::Failed(Failure { config, detail: d });
                }
            }
        }
    }
    CaseOutcome::Passed
}

fn run_threat_case(s: &threat::ThreatScenario) -> CaseOutcome {
    if let Err(e) = s.validate() {
        return CaseOutcome::Rejected(e.to_string());
    }

    // Oracle: sequential Program 1, re-checked for feasibility,
    // maximality, and completeness.
    let seq = match guarded("threat sequential oracle", || {
        threat::threat_analysis_host(s)
    }) {
        Ok(v) => v,
        Err(f) => return CaseOutcome::Failed(f),
    };
    if let Err(e) = threat::verify_intervals(s, &seq) {
        return CaseOutcome::Failed(Failure {
            config: "threat oracle self-check".to_string(),
            detail: e.to_string(),
        });
    }
    let seq_canonical = threat::canonical(seq.clone());

    // Prune differential: the oracle skips the pairs the range prune rules
    // out; Program 1 under a recorder evaluates every step of every pair
    // and must emit the identical list.
    let config = "threat recorded program";
    let (recorded, profile) = match guarded(config, || threat::threat_analysis_profile(s)) {
        Ok(v) => v,
        Err(f) => return CaseOutcome::Failed(f),
    };
    if recorded != seq {
        return CaseOutcome::Failed(Failure {
            config: config.to_string(),
            detail: format!(
                "recorded intervals ({}) != oracle ({}) or differ in order/content",
                recorded.len(),
                seq.len()
            ),
        });
    }

    // Counter differential: the exit-class histogram must reproduce what
    // the stepwise scan records, per threat and for Program 1 as a whole.
    let diff = counter_arm("threat op counter", || {
        let counted = threat::op_profile(s);
        if counted.per_threat != threat::per_threat_counts(s) {
            Some("per-threat counts")
        } else if counted.seq != profile {
            Some("sequential profile")
        } else {
            None
        }
    });
    if let Some(f) = diff {
        return CaseOutcome::Failed(f);
    }

    for workers in WORKER_COUNTS {
        let config = format!("threat chunked x{workers}");
        match guarded(&config, || {
            threat::threat_analysis_chunked_host(s, N_CHUNKS, workers)
        }) {
            Err(f) => return CaseOutcome::Failed(f),
            Ok(got) => {
                let flat = got.flatten();
                if flat != seq {
                    return CaseOutcome::Failed(Failure {
                        config,
                        detail: format!(
                            "flattened chunks ({} intervals) != oracle ({} intervals) \
                             or differ in order/content",
                            flat.len(),
                            seq.len()
                        ),
                    });
                }
            }
        }

        let config = format!("threat fine x{workers}");
        match guarded(&config, || threat::threat_analysis_fine_host(s, workers)) {
            Err(f) => return CaseOutcome::Failed(f),
            Ok(got) => {
                let got = threat::canonical(got.intervals);
                if got != seq_canonical {
                    return CaseOutcome::Failed(Failure {
                        config,
                        detail: format!(
                            "canonical interval set ({}) != oracle set ({})",
                            got.len(),
                            seq_canonical.len()
                        ),
                    });
                }
            }
        }
    }
    CaseOutcome::Passed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn known_good_scenarios_pass_the_matrix() {
        let t = FuzzCase::Terrain(terrain::generate(terrain::TerrainScenarioParams {
            grid_size: 33,
            n_threats: 5,
            seed: 2,
            ..Default::default()
        }));
        assert!(matches!(run_case(&t), CaseOutcome::Passed));

        let a = FuzzCase::Threat(threat::small_scenario(3));
        assert!(matches!(run_case(&a), CaseOutcome::Passed));
    }

    #[test]
    fn malformed_scenarios_are_rejected_not_fatal() {
        let mut s = terrain::small_scenario(1);
        s.threats[0].x = 1_000_000; // off the grid
        match run_case(&FuzzCase::Terrain(s)) {
            CaseOutcome::Rejected(msg) => assert!(msg.contains("outside"), "{msg}"),
            other => panic!("expected Rejected, got {other:?}"),
        }

        let mut s = threat::small_scenario(1);
        s.threats[0].launch_time = 1.0e12; // would scan for billions of steps
        match run_case(&FuzzCase::Threat(s)) {
            CaseOutcome::Rejected(msg) => assert!(msg.contains("timeline"), "{msg}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn a_sample_of_generated_cases_passes() {
        let cfg = GenConfig { reduced: true };
        for i in 0..6 {
            let case = generate_case(99, i, &cfg);
            match run_case(&case) {
                CaseOutcome::Failed(f) => panic!("case {i}: {f}"),
                CaseOutcome::Rejected(msg) => {
                    panic!("generator produced an invalid case {i}: {msg}")
                }
                CaseOutcome::Passed => {}
            }
        }
    }
}
