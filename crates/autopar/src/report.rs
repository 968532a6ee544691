//! Compiler feedback, in the spirit of Tera's `canal` (compiler analysis)
//! tool: per-loop verdicts with the specific reason each loop was not
//! parallelized — the paper notes the real compilers could not even
//! *suggest* what to change, so the reasons here are the analyzer's
//! blocking dependences, stated plainly and pinned to the exact statement
//! (and source line) that carries each dependence.

use crate::ir::{ReduceOp, Stmt};

/// What kind of dependence blocked parallelization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReasonKind {
    /// A scalar visible across iterations is written (e.g.
    /// `num_intervals`).
    ScalarDependence {
        /// The scalar's name.
        name: String,
    },
    /// A store whose subscript the compiler cannot analyze (e.g.
    /// `intervals[num_intervals]`, region-of-influence bounds).
    DataDependentSubscript {
        /// The array written.
        array: String,
    },
    /// Two analyzable references may touch the same element in different
    /// iterations (e.g. `a[i]` vs `a[i-1]`).
    ArrayConflict {
        /// The array written.
        array: String,
        /// Label of the statement it conflicts with.
        with: String,
    },
    /// A call to a separately compiled / pointer-manipulating function.
    OpaqueCall {
        /// The callee.
        name: String,
    },
}

impl std::fmt::Display for ReasonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReasonKind::ScalarDependence { name } => {
                write!(
                    f,
                    "scalar `{name}` is written by every iteration (carried dependence)"
                )
            }
            ReasonKind::DataDependentSubscript { array } => {
                write!(
                    f,
                    "store to `{array}` has a data-dependent subscript; iterations may collide"
                )
            }
            ReasonKind::ArrayConflict { array, with } => {
                write!(f, "references to `{array}` may touch the same element across iterations (vs {with})")
            }
            ReasonKind::OpaqueCall { name } => {
                write!(
                    f,
                    "call to `{name}` cannot be analyzed (separate compilation / pointers)"
                )
            }
        }
    }
}

/// Why a loop could not be auto-parallelized: the dependence kind plus the
/// statement (and source line) it was found at. The paper's compilers
/// named only the loop; carrying the blocking statement is what lets the
/// living auto-vs-manual table (`docs/AUTOPAR.md`) cite exact statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reason {
    /// The dependence kind.
    pub kind: ReasonKind,
    /// Label of the statement carrying the dependence.
    pub stmt: String,
    /// Source line of that statement (0 when unknown).
    pub line: u32,
}

impl Reason {
    /// A reason anchored at a statement.
    pub fn at(kind: ReasonKind, stmt: &Stmt) -> Self {
        Reason {
            kind,
            stmt: stmt.label.clone(),
            line: stmt.line,
        }
    }

    /// Render just the provenance suffix (`at line 7: \`...\``).
    fn provenance(&self) -> String {
        if self.line > 0 {
            format!(" [line {}: `{}`]", self.line, self.stmt)
        } else {
            format!(" [`{}`]", self.stmt)
        }
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.kind, self.provenance())
    }
}

/// A paper obstacle the dataflow pass proved harmless, with the analysis
/// that cleared it and the statement it applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClearedKind {
    /// A shared scalar recognized as an associative reduction: each
    /// worker accumulates privately and partials combine after the loop.
    Reduction {
        /// The reduced scalar.
        name: String,
        /// Its combining operator.
        op: ReduceOp,
    },
    /// A scalar proved defined-before-used in every iteration: each
    /// iteration gets its own copy.
    PrivatizedScalar {
        /// The scalar.
        name: String,
    },
    /// A scratch array whose every read is covered by an earlier
    /// same-iteration write to the same subscripts.
    PrivatizedArray {
        /// The array.
        array: String,
    },
    /// A data-dependent store recognized as the compaction idiom
    /// `out[count++] = ...`: iterations fill disjoint slots, and
    /// per-worker sections concatenated in iteration order reproduce the
    /// sequential output exactly.
    Compaction {
        /// The compacted array.
        array: String,
        /// The monotone counter indexing it.
        counter: String,
    },
    /// A call cleared by an interprocedural purity summary.
    PureCall {
        /// The callee.
        name: String,
        /// Why the summary holds (recorded in [`crate::reduction::Summaries`]).
        why: String,
    },
}

impl std::fmt::Display for ClearedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClearedKind::Reduction { name, op } => {
                write!(f, "`{name}` recognized as a {op} reduction")
            }
            ClearedKind::PrivatizedScalar { name } => {
                write!(
                    f,
                    "`{name}` privatized (defined before used every iteration)"
                )
            }
            ClearedKind::PrivatizedArray { array } => {
                write!(
                    f,
                    "scratch array `{array}` privatized (writes cover every read)"
                )
            }
            ClearedKind::Compaction { array, counter } => {
                write!(
                    f,
                    "store to `{array}` recognized as compaction over counter `{counter}`"
                )
            }
            ClearedKind::PureCall { name, why } => {
                write!(f, "call to `{name}` cleared by purity summary ({why})")
            }
        }
    }
}

/// One cleared obstacle, with statement provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clearing {
    /// What was cleared and how.
    pub kind: ClearedKind,
    /// Label of the statement the clearing applies to.
    pub stmt: String,
    /// Source line of that statement (0 when unknown).
    pub line: u32,
}

impl Clearing {
    /// A clearing anchored at a statement.
    pub fn at(kind: ClearedKind, stmt: &Stmt) -> Self {
        Clearing {
            kind,
            stmt: stmt.label.clone(),
            line: stmt.line,
        }
    }
}

impl std::fmt::Display for Clearing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{} [line {}: `{}`]", self.kind, self.line, self.stmt)
        } else {
            write!(f, "{} [`{}`]", self.kind, self.stmt)
        }
    }
}

/// The analyzer's verdict on one loop.
///
/// ```
/// use autopar::{analyze_loop, Expr, LoopNest, Stmt};
///
/// // for i: sum += a[i] — rejected, and the verdict names the statement.
/// let l = LoopNest::new("for i", "i").stmt(
///     Stmt::new("sum += a[i]")
///         .at(3)
///         .reads(&["sum"])
///         .writes(&["sum"])
///         .array("a", vec![Expr::var("i")], false),
/// );
/// let verdict = analyze_loop(&l);
/// assert!(!verdict.parallel);
/// let text = verdict.to_string();
/// assert!(text.contains("scalar `sum`"));
/// assert!(text.contains("line 3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopVerdict {
    /// The loop's label.
    pub loop_label: String,
    /// Whether the loop may run multithreaded.
    pub parallel: bool,
    /// Whether parallelization came from an explicit pragma rather than
    /// analysis.
    pub by_pragma: bool,
    /// Blocking reasons when not parallel.
    pub reasons: Vec<Reason>,
}

impl std::fmt::Display for LoopVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.parallel && self.by_pragma {
            writeln!(
                f,
                "{}: PARALLEL (by explicit pragma — independence asserted by programmer)",
                self.loop_label
            )
        } else if self.parallel {
            writeln!(f, "{}: PARALLEL (proved independent)", self.loop_label)
        } else {
            writeln!(f, "{}: NOT parallelized", self.loop_label)?;
            for r in &self.reasons {
                writeln!(f, "    - {r}")?;
            }
            Ok(())
        }
    }
}

/// A whole-program report: one verdict per analyzed loop.
///
/// ```
/// use autopar::{analyze_loop, Expr, LoopNest, Report, Stmt};
///
/// let dense = LoopNest::new("for i", "i").stmt(
///     Stmt::new("a[i] = b[i]")
///         .array("a", vec![Expr::var("i")], true)
///         .array("b", vec![Expr::var("i")], false),
/// );
/// let report = Report {
///     verdicts: vec![analyze_loop(&dense)],
/// };
/// assert!(report.verdicts[0].parallel && !report.verdicts[0].by_pragma);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Verdicts, program order.
    pub verdicts: Vec<LoopVerdict>,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "automatic parallelization report ({} loops analyzed)",
            self.verdicts.len()
        )?;
        for v in &self.verdicts {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt() -> Stmt {
        Stmt::new("intervals[num_intervals] = ...").at(9)
    }

    #[test]
    fn reasons_render_readably_with_provenance() {
        let r = Reason::at(
            ReasonKind::ScalarDependence {
                name: "num_intervals".into(),
            },
            &stmt(),
        );
        let text = r.to_string();
        assert!(text.contains("num_intervals"));
        assert!(text.contains("line 9"));
        assert!(text.contains("intervals[num_intervals]"));

        let r = Reason::at(
            ReasonKind::OpaqueCall {
                name: "can_intercept".into(),
            },
            &Stmt::new("call site"),
        );
        let text = r.to_string();
        assert!(text.contains("can_intercept"));
        assert!(!text.contains("line"), "unknown lines are omitted: {text}");
    }

    #[test]
    fn clearings_render_readably() {
        let c = Clearing::at(
            ClearedKind::Compaction {
                array: "intervals".into(),
                counter: "num_intervals".into(),
            },
            &stmt(),
        );
        let text = c.to_string();
        assert!(text.contains("compaction"));
        assert!(text.contains("line 9"));
    }

    #[test]
    fn verdict_display_lists_reasons() {
        let v = LoopVerdict {
            loop_label: "for threat".into(),
            parallel: false,
            by_pragma: false,
            reasons: vec![Reason {
                kind: ReasonKind::ScalarDependence { name: "n".into() },
                stmt: "n++".into(),
                line: 4,
            }],
        };
        let s = v.to_string();
        assert!(s.contains("NOT parallelized"));
        assert!(s.contains("scalar `n`"));
        assert!(s.contains("line 4"));
    }
}
