//! Snapshot of the canal-style report text for Program 2 (ISSUE 10
//! satellite): the verdicts must carry statement/line provenance of the
//! blocking dependence, and the exact wording is part of the crate's
//! contract with `docs/AUTOPAR.md` (whose rows cite these statements).

use autopar::analyze_loop;
use autopar::programs;
use autopar::reduction::{analyze_loop_dataflow, Summaries};

const P2_STMT: &str = "intervals[chunk][num_intervals[chunk]] = ...; num_intervals[chunk]++";

/// The conservative (1998) pass on Program 2: rejected, and the report
/// names the exact statement whose call chain blocks analysis.
#[test]
fn program2_conservative_report_text_is_pinned() {
    let verdict = analyze_loop(&programs::program2_threat_chunked(false));
    let expected = format!(
        "for chunk (Program 2, multithreaded Threat Analysis): NOT parallelized\n\
         \x20   - call to `first_intercept_time` cannot be analyzed (separate compilation / pointers) [line 14: `{P2_STMT}`]\n\
         \x20   - call to `last_intercept_time` cannot be analyzed (separate compilation / pointers) [line 14: `{P2_STMT}`]\n"
    );
    assert_eq!(verdict.to_string(), expected);
}

/// The dataflow pass on the same loop: parallel without a pragma, with
/// both calls cleared by purity summaries — the living table's headline
/// improvement over the paper.
#[test]
fn program2_dataflow_report_text_is_pinned() {
    let v = analyze_loop_dataflow(
        &programs::program2_threat_chunked(false),
        &Summaries::benchmark(),
    );
    let text = v.to_string();
    assert!(
        text.starts_with(
            "for chunk (Program 2, multithreaded Threat Analysis): PARALLEL (proved independent)\n"
        ),
        "{text}"
    );
    assert!(
        text.contains("call to `first_intercept_time` cleared by purity summary"),
        "{text}"
    );
    assert!(
        text.contains("call to `last_intercept_time` cleared by purity summary"),
        "{text}"
    );
    assert!(text.contains(&format!("[line 14: `{P2_STMT}`]")), "{text}");
}

/// Program 4's residual rejection names `next_threat` and its statement —
/// honesty with provenance.
#[test]
fn program4_residual_reason_carries_provenance() {
    let v = analyze_loop_dataflow(
        &programs::program4_terrain_coarse(false),
        &Summaries::benchmark(),
    );
    let text = v.verdict.to_string();
    assert!(
        text.contains(
            "scalar `next_threat` is written by every iteration (carried dependence) \
             [line 4: `threat = next unprocessed threat`]"
        ),
        "{text}"
    );
}
