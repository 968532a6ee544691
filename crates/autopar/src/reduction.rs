//! The dataflow-based analyzer: what a stronger-than-1998 compiler proves
//! on top of the conservative dependence test.
//!
//! Where [`crate::deps::analyze_loop`] reproduces the paper's compilers —
//! every obstacle is a rejection — this pass consumes the solved
//! [`crate::dataflow::Facts`] and *clears* the obstacles that modern
//! analysis handles, recording each clearing with statement provenance:
//!
//! * **reductions** — a shared scalar touched only by consistent
//!   associative updates (`x = x op e`) parallelizes by privatizing per
//!   worker and combining partials; [`crate::ir::ReduceOp::Count`]
//!   counters additionally may appear as store subscripts, feeding the
//!   compaction recognizer;
//! * **scalar privatization** — a written scalar that liveness proves
//!   defined-before-used in every iteration (not live at loop entry, so
//!   nothing flows around the back edge) gets a per-iteration copy, with
//!   the last iteration's value copied out;
//! * **array privatization** — a declared-scratch array whose every read
//!   is covered by an earlier same-iteration write with identical
//!   subscripts;
//! * **compaction** — the `out[count++] = v` idiom: a write-only array
//!   subscripted by a recognized count reduction in the same statement
//!   that bumps it fills disjoint slots, and per-worker sections
//!   concatenated in iteration order reproduce the sequential output
//!   exactly;
//! * **pure calls** — an interprocedural [`Summaries`] table clears calls
//!   the loop-local analysis must otherwise treat as opaque.
//!
//! Everything the pass cannot clear stays a [`Reason`] with the exact
//! blocking statement — the honesty requirement: Programs 3 and 4 keep
//! their genuinely carried dependences.

use crate::dataflow::{self, Facts};
use crate::deps;
use crate::ir::{ArrayRef, Expr, LoopNest, ReduceOp, Reduction, Stmt};
use crate::report::{ClearedKind, Clearing, LoopVerdict, Reason, ReasonKind, Report};
use std::collections::{BTreeMap, BTreeSet};

/// Interprocedural purity summaries: callee name → why the call is safe
/// inside a parallel loop (no writes to shared state, result depends only
/// on arguments and read-only globals).
///
/// Loop-local analysis cannot see across separate compilation — the
/// paper's compilers rejected every call-containing loop for exactly that
/// reason. A summary table is the minimal interprocedural fact base that
/// fixes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summaries {
    entries: BTreeMap<String, String>,
}

impl Summaries {
    /// No summaries: every call stays opaque (the 1998 stance).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Summaries for the benchmark kernels' callees, derived from the
    /// actual Rust implementations in `crates/c3i` (which read scenario
    /// state and return values without touching shared mutables).
    pub fn benchmark() -> Self {
        let mut s = Self::empty();
        s.add(
            "first_intercept_time",
            "reads threat/weapon state only, returns a time",
        );
        s.add(
            "last_intercept_time",
            "reads threat/weapon state only, returns a time",
        );
        s.add(
            "max_safe_altitude",
            "pure function of threat position and the read-only terrain grid",
        );
        s
    }

    /// Record that `name` is safe to call from a parallel loop.
    pub fn add(&mut self, name: &str, why: &str) {
        self.entries.insert(name.to_string(), why.to_string());
    }

    /// Why `name` is pure, if summarized.
    pub fn why(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(String::as_str)
    }
}

/// Capabilities of the dataflow pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowOptions {
    /// Interprocedural purity summaries.
    pub summaries: Summaries,
}

impl DataflowOptions {
    /// Benchmark-callee summaries.
    pub fn benchmark() -> Self {
        DataflowOptions {
            summaries: Summaries::benchmark(),
        }
    }
}

/// The dataflow pass's verdict on one loop: the base verdict plus every
/// obstacle the analysis cleared and the facts the emission pass needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowVerdict {
    /// Parallel / rejected, with residual reasons (statement-anchored).
    pub verdict: LoopVerdict,
    /// Obstacles cleared, in discovery order, with statement provenance.
    pub clearings: Vec<Clearing>,
    /// Recognized reductions (privatize + combine partials).
    pub reductions: Vec<Reduction>,
    /// Scalars proved privatizable (defined before used each iteration).
    pub privatized_scalars: Vec<String>,
    /// Scratch arrays proved privatizable.
    pub privatized_arrays: Vec<String>,
    /// Recognized compactions as `(array, counter)` pairs.
    pub compactions: Vec<(String, String)>,
    /// Calls cleared by purity summaries.
    pub cleared_calls: Vec<String>,
}

impl std::fmt::Display for DataflowVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.verdict)?;
        for c in &self.clearings {
            writeln!(f, "    + {c}")?;
        }
        Ok(())
    }
}

/// The dataflow pass over a set of loops, mirroring [`Report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowReport {
    /// Verdicts, program order.
    pub verdicts: Vec<DataflowVerdict>,
}

impl DataflowReport {
    /// Whether this pass parallelizes a strict superset of the loops the
    /// conservative pass did (same loop order assumed): nothing lost, at
    /// least one gained.
    pub fn strictly_improves(&self, conservative: &Report) -> bool {
        if self.verdicts.len() != conservative.verdicts.len() {
            return false;
        }
        let no_regression = self
            .verdicts
            .iter()
            .zip(&conservative.verdicts)
            .all(|(d, c)| d.verdict.parallel || !c.parallel);
        let gained = self
            .verdicts
            .iter()
            .zip(&conservative.verdicts)
            .any(|(d, c)| d.verdict.parallel && !c.parallel);
        no_regression && gained
    }
}

impl std::fmt::Display for DataflowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "dataflow parallelization report ({} loops analyzed)",
            self.verdicts.len()
        )?;
        for v in &self.verdicts {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Is `w`, across the whole loop body, a well-formed reduction? Returns
/// the operator and the statement anchoring the clearing.
///
/// Requirements: every statement writing or reading `w` carries a
/// matching reduction annotation with one consistent operator (the
/// self-read of `x = x op e` is the only permitted read); `w` never
/// appears as a subscript — except a [`ReduceOp::Count`] counter, whose
/// intermediate values may appear, but only as *store* subscripts in the
/// same statement that bumps the counter (the `out[count++] = v` idiom
/// the compaction recognizer then validates on the array side).
fn recognized_reduction<'a>(w: &str, stmts: &'a [Stmt]) -> Option<(ReduceOp, &'a Stmt)> {
    let mut op: Option<ReduceOp> = None;
    let mut anchor: Option<&Stmt> = None;
    // First pass: operator consistency and no stray touches.
    for s in stmts {
        match s.reductions.iter().find(|r| r.name == w) {
            Some(r) => {
                if op.is_some_and(|o| o != r.op) {
                    return None; // mixed operators do not combine
                }
                op = Some(r.op);
                anchor.get_or_insert(s);
                if !s.writes.iter().any(|x| x == w) {
                    return None; // malformed annotation: reduction without write
                }
            }
            None => {
                if s.writes.iter().any(|x| x == w) || s.reads.iter().any(|x| x == w) {
                    return None; // touched outside the reduction idiom
                }
            }
        }
    }
    let op = op?;
    // Second pass: subscript appearances of the scalar.
    for s in stmts {
        for a in &s.arrays {
            if a.indices.iter().any(|e| e.opaque_scalar() == Some(w)) {
                let is_count_store =
                    op == ReduceOp::Count && a.write && s.writes.iter().any(|x| x == w);
                if !is_count_store {
                    return None; // an intermediate value escapes
                }
            }
        }
    }
    Some((op, anchor?))
}

/// Is scratch array `name` privatizable: every read covered by an earlier
/// same-iteration write with identical subscript expressions?
fn array_privatizable(name: &str, stmts: &[Stmt]) -> bool {
    let mut written: Vec<&Vec<Expr>> = Vec::new();
    let mut any = false;
    for s in stmts {
        // Reads happen before this statement's writes.
        for a in s.arrays.iter().filter(|a| a.array == name && !a.write) {
            if !written.iter().any(|w| **w == a.indices) {
                return false;
            }
        }
        for a in s.arrays.iter().filter(|a| a.array == name && a.write) {
            written.push(&a.indices);
            any = true;
        }
    }
    any
}

/// The counter subscripting `a`, if any dimension is a bare identifier in
/// `counters`.
fn compaction_counter(a: &ArrayRef, counters: &BTreeSet<String>) -> Option<String> {
    a.indices.iter().find_map(|e| {
        e.opaque_scalar()
            .filter(|n| counters.contains(*n))
            .map(str::to_string)
    })
}

/// Analyze one loop with the dataflow pass. See the module docs for what
/// gets cleared; residual obstacles keep statement-level provenance.
pub fn analyze_loop_dataflow(l: &LoopNest, opts: &DataflowOptions) -> DataflowVerdict {
    if l.pragma_parallel {
        return DataflowVerdict {
            verdict: LoopVerdict {
                loop_label: l.label.clone(),
                parallel: true,
                by_pragma: true,
                reasons: Vec::new(),
            },
            clearings: Vec::new(),
            reductions: Vec::new(),
            privatized_scalars: Vec::new(),
            privatized_arrays: Vec::new(),
            compactions: Vec::new(),
            cleared_calls: Vec::new(),
        };
    }

    let facts: Facts = dataflow::solve(l);
    let stmts = &facts.cfg.stmts;
    let private: BTreeSet<String> = l.all_private().into_iter().collect();
    let scratch: BTreeSet<String> = l.all_scratch().into_iter().collect();

    let mut clearings: Vec<Clearing> = Vec::new();
    let mut reasons: Vec<Reason> = Vec::new();
    let mut reductions: Vec<Reduction> = Vec::new();
    let mut privatized_scalars: Vec<String> = Vec::new();
    let mut counters: BTreeSet<String> = BTreeSet::new();

    // --- scalars, in order of first write ---
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for s in stmts {
        for w in &s.writes {
            if w == &l.var || private.contains(w) || !seen.insert(w) {
                continue;
            }
            if let Some((op, anchor)) = recognized_reduction(w, stmts) {
                clearings.push(Clearing::at(
                    ClearedKind::Reduction {
                        name: w.clone(),
                        op,
                    },
                    anchor,
                ));
                reductions.push(Reduction {
                    name: w.clone(),
                    op,
                });
                if op == ReduceOp::Count {
                    counters.insert(w.clone());
                }
            } else if !facts.live_at_entry(w) {
                clearings.push(Clearing::at(
                    ClearedKind::PrivatizedScalar { name: w.clone() },
                    s,
                ));
                privatized_scalars.push(w.clone());
            } else {
                reasons.push(Reason::at(
                    ReasonKind::ScalarDependence { name: w.clone() },
                    s,
                ));
            }
        }
    }

    // --- calls ---
    let mut cleared_calls: Vec<String> = Vec::new();
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for s in stmts {
        for c in &s.calls {
            if !called.insert(c) {
                continue;
            }
            match opts.summaries.why(c) {
                Some(why) => {
                    clearings.push(Clearing::at(
                        ClearedKind::PureCall {
                            name: c.clone(),
                            why: why.to_string(),
                        },
                        s,
                    ));
                    cleared_calls.push(c.clone());
                }
                None => reasons.push(Reason::at(ReasonKind::OpaqueCall { name: c.clone() }, s)),
            }
        }
    }

    // --- arrays ---
    // Privatizable scratch arrays first: their references then take no
    // part in conflict testing.
    let mut privatized_arrays: Vec<String> = Vec::new();
    for name in &scratch {
        if array_privatizable(name, stmts) {
            let anchor = stmts
                .iter()
                .find(|s| s.arrays.iter().any(|a| a.array == *name && a.write))
                .expect("privatizable array has a write");
            clearings.push(Clearing::at(
                ClearedKind::PrivatizedArray {
                    array: name.clone(),
                },
                anchor,
            ));
            privatized_arrays.push(name.clone());
        }
    }
    let privatized: BTreeSet<&str> = privatized_arrays.iter().map(String::as_str).collect();

    let mut compactions: Vec<(String, String)> = Vec::new();
    let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for s1 in stmts {
        for a in s1.arrays.iter().filter(|a| a.write) {
            if privatized.contains(a.array.as_str()) {
                continue;
            }
            // Compaction: write-only array, counter-subscripted, bumped in
            // the same statement.
            let write_only = stmts
                .iter()
                .all(|s| s.arrays.iter().all(|r| r.array != a.array || r.write));
            if let Some(counter) = compaction_counter(a, &counters) {
                if write_only && s1.writes.contains(&counter) {
                    if !compactions.contains(&(a.array.clone(), counter.clone())) {
                        clearings.push(Clearing::at(
                            ClearedKind::Compaction {
                                array: a.array.clone(),
                                counter: counter.clone(),
                            },
                            s1,
                        ));
                        compactions.push((a.array.clone(), counter));
                    }
                    continue;
                }
            }
            for s2 in stmts {
                for b in &s2.arrays {
                    if privatized.contains(b.array.as_str()) {
                        continue;
                    }
                    if deps::refs_may_conflict(a, b, &l.var) {
                        let key = (a.array.clone(), format!("{}/{}", s1.label, s2.label));
                        if seen_pairs.insert(key) {
                            let opaque = a.indices.iter().chain(&b.indices).any(|e| {
                                !matches!(e, Expr::Const(_))
                                    && !matches!(e, Expr::Affine { var, .. } if var == &l.var)
                            });
                            reasons.push(if opaque {
                                Reason::at(
                                    ReasonKind::DataDependentSubscript {
                                        array: a.array.clone(),
                                    },
                                    s1,
                                )
                            } else {
                                Reason::at(
                                    ReasonKind::ArrayConflict {
                                        array: a.array.clone(),
                                        with: s2.label.clone(),
                                    },
                                    s1,
                                )
                            });
                        }
                    }
                }
            }
        }
    }

    let mut dedup: Vec<Reason> = Vec::new();
    for r in reasons {
        if !dedup.contains(&r) {
            dedup.push(r);
        }
    }

    DataflowVerdict {
        verdict: LoopVerdict {
            loop_label: l.label.clone(),
            parallel: dedup.is_empty(),
            by_pragma: false,
            reasons: dedup,
        },
        clearings,
        reductions,
        privatized_scalars,
        privatized_arrays,
        compactions,
        cleared_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, LoopNest, ReduceOp, Stmt};

    fn df(l: &LoopNest) -> DataflowVerdict {
        analyze_loop_dataflow(l, &DataflowOptions::default())
    }

    #[test]
    fn sum_reduction_is_cleared() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("sum += a[i]")
                .at(2)
                .reads(&["sum"])
                .writes(&["sum"])
                .reduces_op("sum", ReduceOp::Sum)
                .array("a", vec![Expr::var("i")], false),
        );
        let v = df(&l);
        assert!(v.verdict.parallel, "{v}");
        assert_eq!(v.reductions.len(), 1);
        assert!(v.to_string().contains("sum reduction"));
    }

    #[test]
    fn mixed_operator_reduction_is_rejected() {
        let l = LoopNest::new("for i", "i")
            .stmt(
                Stmt::new("x += a[i]")
                    .reads(&["x"])
                    .writes(&["x"])
                    .reduces_op("x", ReduceOp::Sum),
            )
            .stmt(
                Stmt::new("x = min(x, b[i])")
                    .reads(&["x"])
                    .writes(&["x"])
                    .reduces_op("x", ReduceOp::Min),
            );
        let v = df(&l);
        assert!(!v.verdict.parallel, "mixed sum/min cannot combine: {v}");
    }

    #[test]
    fn reduction_read_elsewhere_is_rejected() {
        // sum is read by a non-reduction statement: intermediate observed.
        let l = LoopNest::new("for i", "i")
            .stmt(
                Stmt::new("sum += a[i]")
                    .reads(&["sum"])
                    .writes(&["sum"])
                    .reduces_op("sum", ReduceOp::Sum),
            )
            .stmt(
                Stmt::new("b[i] = sum")
                    .reads(&["sum"])
                    .array("b", vec![Expr::var("i")], true),
            );
        let v = df(&l);
        assert!(!v.verdict.parallel, "{v}");
        assert!(v
            .verdict
            .reasons
            .iter()
            .any(|r| matches!(&r.kind, ReasonKind::ScalarDependence { name } if name == "sum")));
    }

    #[test]
    fn defined_before_used_scalar_is_privatized() {
        let l = LoopNest::new("for i", "i")
            .stmt(
                Stmt::new("t = a[i]")
                    .writes(&["t"])
                    .array("a", vec![Expr::var("i")], false),
            )
            .stmt(
                Stmt::new("b[i] = t")
                    .reads(&["t"])
                    .array("b", vec![Expr::var("i")], true),
            );
        let v = df(&l);
        assert!(v.verdict.parallel, "{v}");
        assert_eq!(v.privatized_scalars, vec!["t".to_string()]);
    }

    #[test]
    fn carried_scalar_stays_rejected_with_provenance() {
        // x read at top, written at bottom: flows around the back edge.
        let l = LoopNest::new("for i", "i")
            .stmt(
                Stmt::new("b[i] = x")
                    .at(4)
                    .reads(&["x"])
                    .array("b", vec![Expr::var("i")], true),
            )
            .stmt(Stmt::new("x = a[i]").at(5).writes(&["x"]).array(
                "a",
                vec![Expr::var("i")],
                false,
            ));
        let v = df(&l);
        assert!(!v.verdict.parallel);
        let text = v.verdict.to_string();
        assert!(text.contains("scalar `x`"), "{text}");
        assert!(text.contains("line 5"), "anchored at the write: {text}");
    }

    #[test]
    fn compaction_idiom_is_cleared() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("out[n] = a[i]; n++")
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", ReduceOp::Count)
                .array("out", vec![Expr::Opaque("n".into())], true)
                .array("a", vec![Expr::var("i")], false),
        );
        let v = df(&l);
        assert!(v.verdict.parallel, "{v}");
        assert_eq!(v.compactions, vec![("out".to_string(), "n".to_string())]);
    }

    #[test]
    fn compaction_requires_write_only_array() {
        // Reading back out[] defeats the idiom.
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("out[n] = out[0] + a[i]; n++")
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", ReduceOp::Count)
                .array("out", vec![Expr::Opaque("n".into())], true)
                .array("out", vec![Expr::Const(0)], false),
        );
        let v = df(&l);
        assert!(!v.verdict.parallel, "{v}");
    }

    #[test]
    fn count_counter_as_read_subscript_is_rejected() {
        // Reading in[n] observes the counter's intermediate values.
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("b[i] = in[n]; n++")
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", ReduceOp::Count)
                .array("in", vec![Expr::Opaque("n".into())], false)
                .array("b", vec![Expr::var("i")], true),
        );
        let v = df(&l);
        assert!(!v.verdict.parallel, "{v}");
    }

    #[test]
    fn scratch_array_with_covering_writes_is_privatized() {
        let l = LoopNest::new("for t", "t")
            .scratch(&["tmp"])
            .stmt(Stmt::new("tmp[x][y] = f(t)").array(
                "tmp",
                vec![Expr::Opaque("x".into()), Expr::Opaque("y".into())],
                true,
            ))
            .stmt(
                Stmt::new("out[t] = g(tmp)")
                    .array(
                        "tmp",
                        vec![Expr::Opaque("x".into()), Expr::Opaque("y".into())],
                        false,
                    )
                    .array("out", vec![Expr::var("t")], true),
            );
        let v = df(&l);
        assert!(v.verdict.parallel, "{v}");
        assert_eq!(v.privatized_arrays, vec!["tmp".to_string()]);
    }

    #[test]
    fn scratch_read_before_write_is_not_privatized() {
        // The read precedes any write: last iteration's data flows in.
        let l = LoopNest::new("for t", "t")
            .scratch(&["tmp"])
            .stmt(Stmt::new("out[t] = g(tmp)").array("tmp", vec![Expr::Opaque("x".into())], false))
            .stmt(Stmt::new("tmp[x] = f(t)").array("tmp", vec![Expr::Opaque("x".into())], true));
        let v = df(&l);
        assert!(!v.verdict.parallel, "{v}");
    }

    #[test]
    fn undeclared_scratch_is_never_privatized() {
        // Same shape as the privatizable case but without the scratch
        // declaration: deadness-after-loop is not ours to assume.
        let l = LoopNest::new("for t", "t")
            .stmt(Stmt::new("tmp[x] = f(t)").array("tmp", vec![Expr::Opaque("x".into())], true))
            .stmt(
                Stmt::new("out[t] = g(tmp)")
                    .array("tmp", vec![Expr::Opaque("x".into())], false)
                    .array("out", vec![Expr::var("t")], true),
            );
        assert!(!df(&l).verdict.parallel);
    }

    #[test]
    fn summarized_calls_clear_and_unsummarized_block() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[i] = f(i) + g(i)").call("f").call("g").array(
                "a",
                vec![Expr::var("i")],
                true,
            ),
        );
        let mut opts = DataflowOptions::default();
        opts.summaries.add("f", "pure");
        let v = analyze_loop_dataflow(&l, &opts);
        assert!(!v.verdict.parallel);
        assert_eq!(v.cleared_calls, vec!["f".to_string()]);
        assert!(v
            .verdict
            .reasons
            .iter()
            .any(|r| matches!(&r.kind, ReasonKind::OpaqueCall { name } if name == "g")));

        opts.summaries.add("g", "pure");
        assert!(analyze_loop_dataflow(&l, &opts).verdict.parallel);
    }

    #[test]
    fn pragma_still_overrides() {
        let l = LoopNest::new("for i", "i")
            .pragma()
            .stmt(Stmt::new("anything").writes(&["x"]).call("f"));
        let v = df(&l);
        assert!(v.verdict.parallel && v.verdict.by_pragma);
        assert!(v.clearings.is_empty());
    }
}
