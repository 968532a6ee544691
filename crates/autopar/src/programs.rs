//! Loop-nest encodings of the paper's Programs 1–4, on which the modeled
//! compilers reproduce — and then improve on — the published verdicts.
//!
//! The conservative pass ([`benchmark_report`], the paper's 1998
//! compilers):
//!
//! * Programs 1 and 3 (the sequential benchmarks): **rejected** — shared
//!   scalars, data-dependent store subscripts, overlapping regions,
//!   opaque calls;
//! * Programs 2 and 4 (the manual transformations): still rejected by
//!   pure analysis (the function-call chains remain), parallel only with
//!   the explicit pragma — exactly the paper's "the compilers were not
//!   even able to parallelize the manually transformed programs without
//!   the explicit parallel loop pragmas".
//!
//! The dataflow pass ([`dataflow_report`]) clears what modern analysis
//! handles — Program 1's count reduction + compaction store and Program
//! 2's call chain (via purity summaries) parallelize *without* pragmas —
//! while the genuinely carried dependences stay rejected: Program 3's
//! overlapping `masking` regions and Program 4's `next_threat` work
//! counter and lock-guarded merges.
//!
//! Statement `.at(line)` numbers refer to the paper-style listings
//! reproduced in `docs/AUTOPAR.md`, so report provenance can be checked
//! against the listing by eye.

use crate::deps::analyze_loop;
use crate::ir::{Expr, LoopNest, ReduceOp, Stmt};
use crate::reduction::{analyze_loop_dataflow, DataflowReport, Summaries};
use crate::report::Report;

/// Program 1: sequential Threat Analysis — the outer `for threat` loop.
pub fn program1_threat_sequential() -> LoopNest {
    LoopNest::new(
        "for threat (Program 1, sequential Threat Analysis)",
        "threat",
    )
    .private(&["t0", "t1", "t2"])
    .nest(
        LoopNest::new("for weapon", "weapon").stmt(
            Stmt::new("intervals[num_intervals] = (threat, weapon, [t1..t2]); num_intervals++")
                .at(9)
                .reads(&["num_intervals"])
                .writes(&["num_intervals"])
                // `num_intervals++` is a monotone count: the annotation the
                // frontend records, which the dataflow pass must still
                // validate (no other touches, subscript uses only in the
                // compaction store).
                .reduces_op("num_intervals", ReduceOp::Count)
                .array(
                    "intervals",
                    vec![Expr::Opaque("num_intervals".into())],
                    true,
                )
                .array("threats", vec![Expr::var("threat")], false)
                .array("weapons", vec![Expr::Opaque("weapon".into())], false)
                .call("first_intercept_time")
                .call("last_intercept_time"),
        ),
    )
}

/// Program 2: chunked Threat Analysis — the `for chunk` loop, with and
/// without the `#pragma multithreaded`.
pub fn program2_threat_chunked(with_pragma: bool) -> LoopNest {
    let l = LoopNest::new(
        "for chunk (Program 2, multithreaded Threat Analysis)",
        "chunk",
    )
    .private(&[
        "first_threat",
        "last_threat",
        "threat",
        "weapon",
        "t0",
        "t1",
        "t2",
    ])
    .stmt(
        Stmt::new("intervals[chunk][num_intervals[chunk]] = ...; num_intervals[chunk]++")
            .at(14)
            .array(
                "intervals",
                vec![
                    Expr::var("chunk"),
                    Expr::Opaque("num_intervals[chunk]".into()),
                ],
                true,
            )
            .array("num_intervals", vec![Expr::var("chunk")], true)
            .array("num_intervals", vec![Expr::var("chunk")], false)
            .array("threats", vec![Expr::Opaque("threat".into())], false)
            .call("first_intercept_time")
            .call("last_intercept_time"),
    );
    if with_pragma {
        l.pragma()
    } else {
        l
    }
}

/// Program 3: sequential Terrain Masking — the outer `for threat` loop.
///
/// Two statements: filling the per-threat `temp` altitude grid (a scratch
/// array the source re-initializes every iteration), then min-merging it
/// into the shared `masking` map over the threat's region of influence.
/// The dataflow pass privatizes `temp` but the region merge genuinely
/// overlaps across threats, so the loop stays rejected.
pub fn program3_terrain_sequential() -> LoopNest {
    LoopNest::new(
        "for threat (Program 3, sequential Terrain Masking)",
        "threat",
    )
    .private(&["x", "y"])
    .scratch(&["temp"])
    .stmt(
        Stmt::new("temp[x][y] = max_safe_altitude(threat, x, y)")
            .at(7)
            .array(
                "temp",
                vec![Expr::Opaque("x".into()), Expr::Opaque("y".into())],
                true,
            )
            .call("max_safe_altitude"),
    )
    .stmt(
        Stmt::new("masking[region of influence] = Min(masking, temp)")
            .at(9)
            // The region bounds depend on the threat's data — the
            // compiler sees data-dependent subscripts into a shared
            // array, written by every iteration.
            .array(
                "masking",
                vec![
                    Expr::Opaque("x in region".into()),
                    Expr::Opaque("y in region".into()),
                ],
                true,
            )
            .array(
                "masking",
                vec![
                    Expr::Opaque("x in region".into()),
                    Expr::Opaque("y in region".into()),
                ],
                false,
            )
            .array(
                "temp",
                vec![Expr::Opaque("x".into()), Expr::Opaque("y".into())],
                false,
            ),
    )
}

/// Program 4: coarse-grained Terrain Masking — the `for thread` loop,
/// with and without the pragma.
pub fn program4_terrain_coarse(with_pragma: bool) -> LoopNest {
    let l = LoopNest::new(
        "for thread (Program 4, multithreaded Terrain Masking)",
        "thread",
    )
    .private(&["threat", "x", "y", "temp"])
    .stmt(
        Stmt::new("threat = next unprocessed threat")
            .at(4)
            .reads(&["next_threat"])
            .writes(&["next_threat"]),
    )
    .stmt(
        Stmt::new("lock(locks[i][j]); masking = Min(masking, temp); unlock")
            .at(11)
            .array(
                "masking",
                vec![
                    Expr::Opaque("x in block".into()),
                    Expr::Opaque("y in block".into()),
                ],
                true,
            )
            .array(
                "locks",
                vec![Expr::Opaque("i".into()), Expr::Opaque("j".into())],
                true,
            )
            .call("max_safe_altitude"),
    );
    if with_pragma {
        l.pragma()
    } else {
        l
    }
}

/// A textbook-parallelizable loop the production compilers of the era
/// *did* handle (dense affine Fortran-style) — included so the rejections
/// above are demonstrably not vacuous.
pub fn affine_vector_loop() -> LoopNest {
    LoopNest::new("for i (dense vector update)", "i").stmt(
        Stmt::new("a[i] = b[i]*s + c[i]")
            .at(2)
            .reads(&["s"])
            .array("a", vec![Expr::var("i")], true)
            .array("b", vec![Expr::var("i")], false)
            .array("c", vec![Expr::var("i")], false),
    )
}

/// The five analyzed loop nests (Programs 1–4 without pragmas, plus the
/// affine control loop), in report order.
pub fn benchmark_loops() -> Vec<LoopNest> {
    vec![
        program1_threat_sequential(),
        program2_threat_chunked(false),
        program3_terrain_sequential(),
        program4_terrain_coarse(false),
        affine_vector_loop(),
    ]
}

/// Run the modeled 1998 compiler over all four benchmark loop nests
/// (without pragmas) plus the affine control loop — the paper's
/// "automatic parallelization" experiment.
pub fn benchmark_report() -> Report {
    Report {
        verdicts: benchmark_loops().iter().map(analyze_loop).collect(),
    }
}

/// Run the dataflow pass (with benchmark purity summaries) over the same
/// five loops.
pub fn dataflow_report() -> DataflowReport {
    let summaries = Summaries::benchmark();
    DataflowReport {
        verdicts: benchmark_loops()
            .iter()
            .map(|l| analyze_loop_dataflow(l, &summaries))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ClearedKind, ReasonKind};

    #[test]
    fn program1_is_rejected_for_the_papers_reasons() {
        let v = analyze_loop(&program1_threat_sequential());
        assert!(!v.parallel);
        // The three cited obstacles: shared counter, data-dependent store,
        // opaque calls.
        assert!(v.reasons.iter().any(
            |r| matches!(&r.kind, ReasonKind::ScalarDependence { name } if name == "num_intervals")
        ));
        assert!(v.reasons.iter().any(
            |r| matches!(&r.kind, ReasonKind::DataDependentSubscript { array } if array == "intervals")
        ));
        assert!(v
            .reasons
            .iter()
            .any(|r| matches!(&r.kind, ReasonKind::OpaqueCall { .. })));
        // Every reason is anchored at the paper-listing line.
        assert!(v.reasons.iter().all(|r| r.line > 0), "{v:?}");
    }

    #[test]
    fn program2_needs_the_pragma() {
        let without = analyze_loop(&program2_threat_chunked(false));
        assert!(
            !without.parallel,
            "call chains must still block analysis: {without:?}"
        );
        let with = analyze_loop(&program2_threat_chunked(true));
        assert!(with.parallel && with.by_pragma);
    }

    #[test]
    fn program3_is_rejected_for_overlapping_regions() {
        let v = analyze_loop(&program3_terrain_sequential());
        assert!(!v.parallel);
        assert!(v.reasons.iter().any(
            |r| matches!(&r.kind, ReasonKind::DataDependentSubscript { array } if array == "masking")
        ));
    }

    #[test]
    fn program4_needs_the_pragma() {
        let without = analyze_loop(&program4_terrain_coarse(false));
        assert!(!without.parallel);
        let with = analyze_loop(&program4_terrain_coarse(true));
        assert!(with.parallel && with.by_pragma);
    }

    #[test]
    fn the_affine_control_loop_is_auto_parallelized() {
        let v = analyze_loop(&affine_vector_loop());
        assert!(v.parallel && !v.by_pragma, "{v:?}");
    }

    #[test]
    fn benchmark_report_matches_the_paper() {
        let report = benchmark_report();
        // All four benchmark loops rejected; only the affine control loop
        // parallelizes.
        let benchmark_verdicts = &report.verdicts[..4];
        assert!(benchmark_verdicts.iter().all(|v| !v.parallel));
        assert!(report.verdicts[4].parallel && !report.verdicts[4].by_pragma);
        let text = report.to_string();
        assert!(text.contains("NOT parallelized"));
        assert!(text.contains("num_intervals"));
    }

    #[test]
    fn dataflow_pass_clears_program1() {
        let report = dataflow_report();
        let v = &report.verdicts[0];
        assert!(v.verdict.parallel, "{v}");
        assert!(v
            .clearings
            .iter()
            .any(|c| matches!(&c.kind, ClearedKind::Reduction { name, op }
                if name == "num_intervals" && *op == ReduceOp::Count)));
        assert!(v.clearings.iter().any(
            |c| matches!(&c.kind, ClearedKind::Compaction { array, .. } if array == "intervals")
        ));
        assert!(v
            .clearings
            .iter()
            .any(|c| matches!(&c.kind, ClearedKind::PureCall { .. })));
    }

    #[test]
    fn dataflow_pass_clears_program2_without_pragma() {
        let report = dataflow_report();
        let v = &report.verdicts[1];
        assert!(v.verdict.parallel && !v.verdict.by_pragma, "{v}");
    }

    #[test]
    fn dataflow_pass_stays_honest_on_programs_3_and_4() {
        let report = dataflow_report();
        let p3 = &report.verdicts[2];
        assert!(!p3.verdict.parallel);
        // temp is privatized — but the masking region overlap remains.
        assert_eq!(p3.privatized_arrays, vec!["temp".to_string()]);
        assert!(p3.verdict.reasons.iter().any(
            |r| matches!(&r.kind, ReasonKind::DataDependentSubscript { array } if array == "masking")
        ));
        let p4 = &report.verdicts[3];
        assert!(!p4.verdict.parallel);
        assert!(p4.verdict.reasons.iter().any(
            |r| matches!(&r.kind, ReasonKind::ScalarDependence { name } if name == "next_threat")
        ));
    }

    #[test]
    fn dataflow_pass_strictly_improves_on_the_conservative_pass() {
        let report = dataflow_report();
        assert!(report.strictly_improves(&benchmark_report()));
        let auto =
            |v: &&crate::reduction::DataflowVerdict| v.verdict.parallel && !v.verdict.by_pragma;
        let auto_parallel = report.verdicts.iter().filter(auto).count();
        assert_eq!(auto_parallel, 3, "P1, P2, control loop");
    }
}
