//! Campaign driver: generate N cases, run each through the differential
//! matrix, and minimize whatever fails.

use crate::gen::{generate_case, FuzzCase, GenConfig};
use crate::runner::{run_case, CaseOutcome, Failure};
use crate::shrink::shrink_case;

/// Campaign parameters (the `repro --fuzz N [--fuzz-seed S]` knobs).
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of scenarios to generate and check.
    pub n_cases: usize,
    /// Campaign seed: drives scenario generation, so a campaign's cases
    /// reproduce end to end.
    pub seed: u64,
    /// Use reduced scenario sizes (CI smoke runs).
    pub reduced: bool,
}

/// A failing case after delta-debugging minimization.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// Campaign index of the original failing case (reproduce with
    /// `generate_case(seed, index, ..)`).
    pub index: usize,
    /// The minimized scenario — commit this under `tests/corpus/` once
    /// the underlying bug is fixed.
    pub case: FuzzCase,
    /// The divergence observed on the *minimized* case.
    pub failure: Failure,
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases generated.
    pub n_cases: usize,
    /// Cases where every variant matched the oracle.
    pub n_passed: usize,
    /// Cases rejected by scenario validation (counted, not fatal; the
    /// generator's own output never lands here).
    pub n_rejected: usize,
    /// Minimized failures, in discovery order.
    pub failures: Vec<MinimizedFailure>,
}

impl CampaignReport {
    /// True when no case failed the differential check.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run a full campaign: generates `n_cases` scenarios, runs each through
/// the matrix, and ddmin-minimizes every failure before reporting it.
/// `progress` is called after each case with (index, outcome) — the CLI
/// uses it for live reporting; pass a no-op closure otherwise.
pub fn run_campaign(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(usize, &CaseOutcome),
) -> CampaignReport {
    let gen_cfg = GenConfig {
        reduced: cfg.reduced,
    };
    let mut report = CampaignReport {
        n_cases: cfg.n_cases,
        ..Default::default()
    };
    for index in 0..cfg.n_cases {
        let case = generate_case(cfg.seed, index, &gen_cfg);
        let outcome = run_case(&case);
        progress(index, &outcome);
        match outcome {
            CaseOutcome::Passed => report.n_passed += 1,
            CaseOutcome::Rejected(_) => report.n_rejected += 1,
            CaseOutcome::Failed(original) => {
                let minimized = shrink_case(&case, |c| run_case(c).is_failure());
                let failure = match run_case(&minimized) {
                    CaseOutcome::Failed(f) => f,
                    // The minimized case must still fail (the shrinker's
                    // predicate guarantees it); fall back defensively.
                    _ => original,
                };
                report.failures.push(MinimizedFailure {
                    index,
                    case: minimized,
                    failure,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reduced_campaign_passes_cleanly() {
        let report = run_campaign(
            &CampaignConfig {
                n_cases: 8,
                seed: 1,
                reduced: true,
            },
            |_, _| {},
        );
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.n_passed, 8);
        assert_eq!(report.n_rejected, 0);
    }
}
