//! The emission pass: turn a "parallelizable" verdict into an executable
//! plan — a [`Schedule`] choice plus the privatization /
//! reduction / compaction clauses the runtime must honor.
//!
//! The schedule heuristic mirrors how the paper's manual transformations
//! were scheduled:
//!
//! * loops whose iterations have *data-dependent* cost — a compaction
//!   store (output size varies per iteration) or cleared calls (work
//!   depends on the data) — or irregular access (opaque subscripts)
//!   self-schedule ([`Schedule::Dynamic`]), like Program 4's
//!   next-unprocessed-threat counter;
//! * dense affine loops block statically ([`Schedule::Static`]), the
//!   paper's `(chunk*n)/num_chunks` expression.

use crate::ir::{Expr, LoopNest, Node, Reduction};
use crate::reduction::DataflowVerdict;

/// How a plan hands iterations to workers: the two schedules of the
/// paper's manual transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous chunks, one per worker, computed with the paper's
    /// `(chunk*n)/num_chunks` blocking expression, as in Program 2.
    Static,
    /// Workers repeatedly claim the next unprocessed iteration from a
    /// shared counter (self-scheduling), as in Program 4.
    Dynamic,
}

impl std::fmt::Display for Schedule {
    /// Lowercase schedule name (`static` / `dynamic`), the spelling of
    /// `table_auto.csv`'s Schedule column.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Static => "static",
            Schedule::Dynamic => "dynamic",
        })
    }
}

/// An executable parallelization plan for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelPlan {
    /// The loop the plan is for.
    pub loop_label: String,
    /// Chosen iteration-to-worker schedule.
    pub schedule: Schedule,
    /// Reductions to privatize and combine after the loop.
    pub reductions: Vec<Reduction>,
    /// Scalars and arrays given per-iteration copies (last value out).
    pub privatized: Vec<String>,
    /// Compacted `(array, counter)` outputs: workers fill private
    /// sections, concatenated in iteration order after the loop.
    pub compactions: Vec<(String, String)>,
}

/// Does any subscript in the nest fall outside affine-in-some-variable
/// analysis (the irregular-access signal for the schedule heuristic)?
fn any_opaque_subscript(l: &LoopNest) -> bool {
    fn walk(nodes: &[Node]) -> bool {
        nodes.iter().any(|n| match n {
            Node::Stmt(s) => s
                .arrays
                .iter()
                .any(|a| a.indices.iter().any(|e| matches!(e, Expr::Opaque(_)))),
            Node::Loop(l) => walk(&l.body),
        })
    }
    walk(&l.body)
}

/// Emit the plan for a loop the dataflow pass (or the programmer's
/// pragma) declared parallel; `None` for rejected loops.
pub fn emit_plan(l: &LoopNest, v: &DataflowVerdict) -> Option<ParallelPlan> {
    if !v.verdict.parallel {
        return None;
    }
    let data_dependent_cost = !v.compactions.is_empty() || !v.cleared_calls.is_empty();
    let schedule = if data_dependent_cost || any_opaque_subscript(l) {
        Schedule::Dynamic
    } else {
        Schedule::Static
    };
    let mut privatized = v.privatized_scalars.clone();
    privatized.extend(v.privatized_arrays.iter().cloned());
    Some(ParallelPlan {
        loop_label: l.label.clone(),
        schedule,
        reductions: v.reductions.clone(),
        privatized,
        compactions: v.compactions.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{LoopNest, Stmt};
    use crate::reduction::{analyze_loop_dataflow, DataflowOptions};

    fn plan(l: &LoopNest, opts: &DataflowOptions) -> Option<ParallelPlan> {
        emit_plan(l, &analyze_loop_dataflow(l, opts))
    }

    #[test]
    fn rejected_loops_emit_no_plan() {
        let l = LoopNest::new("for i", "i").stmt(Stmt::new("x = f(i)").writes(&["x"]).call("f"));
        assert_eq!(plan(&l, &DataflowOptions::default()), None);
    }

    #[test]
    fn dense_affine_loops_schedule_statically() {
        let l = crate::programs::affine_vector_loop();
        let p = plan(&l, &DataflowOptions::default()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Static);
        assert!(p.reductions.is_empty() && p.privatized.is_empty() && p.compactions.is_empty());
    }

    #[test]
    fn compaction_loops_self_schedule() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("out[n] = a[i]; n++")
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", crate::ir::ReduceOp::Count)
                .array("out", vec![Expr::Opaque("n".into())], true)
                .array("a", vec![Expr::var("i")], false),
        );
        let p = plan(&l, &DataflowOptions::default()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Dynamic);
        let count = Reduction {
            name: "n".into(),
            op: crate::ir::ReduceOp::Count,
        };
        assert_eq!(p.reductions, vec![count]);
        assert_eq!(p.compactions, vec![("out".into(), "n".into())]);
    }

    #[test]
    fn irregular_but_uniform_loops_self_schedule() {
        // Opaque read subscript, no calls, no compaction.
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[i] = b[idx]")
                .array("a", vec![Expr::var("i")], true)
                .array("b", vec![Expr::Opaque("idx".into())], false),
        );
        let p = plan(&l, &DataflowOptions::default()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Dynamic);
    }

    #[test]
    fn pragma_loops_still_get_a_plan() {
        let l = crate::programs::program2_threat_chunked(true);
        let p = plan(&l, &DataflowOptions::benchmark()).expect("pragma loops run parallel");
        assert_eq!(p.loop_label, l.label);
    }
}
