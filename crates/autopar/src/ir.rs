//! Loop-nest IR: the program representation the modeled compiler analyzes.
//!
//! The IR captures exactly what loop-level dependence analysis consumes:
//! which scalars a statement reads and writes, which array elements it
//! touches (with symbolic subscripts), and which calls it makes. Subscript
//! expressions distinguish the analyzable case (affine in the loop
//! variable) from the unanalyzable ones (other variables, data-dependent
//! values) — the distinction the paper's compilers founder on.

/// A subscript expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A compile-time constant.
    Const(i64),
    /// `scale * var + offset`, affine in the named variable.
    Affine {
        /// The variable (usually a loop variable).
        var: String,
        /// Multiplier.
        scale: i64,
        /// Additive constant.
        offset: i64,
    },
    /// A value the compiler cannot analyze (data-dependent subscript,
    /// pointer arithmetic, value returned from a call).
    Opaque(String),
}

impl Expr {
    /// Shorthand for the loop variable itself.
    pub fn var(name: &str) -> Self {
        Expr::Affine {
            var: name.to_string(),
            scale: 1,
            offset: 0,
        }
    }

    /// If this is an [`Expr::Opaque`] holding a bare identifier (a scalar
    /// name such as `num_intervals`, as opposed to free-form text like
    /// `"x in region"`), return that identifier.
    ///
    /// This is the hook the dataflow pass uses to connect data-dependent
    /// subscripts back to the scalars they read: `intervals[num_intervals]`
    /// is a *use* of `num_intervals`, which is what lets the compaction
    /// recognizer prove distinct iterations write distinct slots once the
    /// counter is known to be a monotone count reduction.
    pub fn opaque_scalar(&self) -> Option<&str> {
        match self {
            Expr::Opaque(s)
                if !s.is_empty()
                    && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !s.starts_with(|c: char| c.is_ascii_digit()) =>
            {
                Some(s)
            }
            _ => None,
        }
    }
}

/// The combining operator of a recognized associative reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `x = x + expr` (also covers `-` rewritten as adding a negation).
    Sum,
    /// `x = min(x, expr)`.
    Min,
    /// `x = max(x, expr)`.
    Max,
    /// `x = x + k` with `k >= 1` per execution: a monotone counter whose
    /// intermediate values index a compaction store (`out[x++] = ...`).
    /// Unlike the other operators the *intermediate* values of a count may
    /// be observed — but only as store subscripts, which the compaction
    /// analysis checks separately.
    Count,
}

impl std::fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
            ReduceOp::Count => "count",
        })
    }
}

/// An associative-update annotation on a statement: `name = name op ...`.
///
/// The annotation records only the *shape* the frontend saw; whether the
/// scalar really is parallelizable as a reduction (no other reads, no
/// non-reduction writes anywhere in the loop) is decided by the dataflow
/// pass (`reduction::recognize`), not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// The updated scalar.
    pub name: String,
    /// The combining operator.
    pub op: ReduceOp,
}

/// One array access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Array name.
    pub array: String,
    /// Subscripts, outermost dimension first.
    pub indices: Vec<Expr>,
    /// Whether this access writes.
    pub write: bool,
}

/// A straight-line statement, summarized by its effects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stmt {
    /// Human-readable label for reports.
    pub label: String,
    /// Source line of the statement in the program listing it was lifted
    /// from (0 when unknown). Reports cite this line, so a verdict names
    /// the exact statement carrying the blocking dependence.
    pub line: u32,
    /// Scalars read.
    pub reads: Vec<String>,
    /// Scalars written.
    pub writes: Vec<String>,
    /// Scalars updated by an associative reduction (`x = x op expr`).
    /// The dataflow pass privatizes these (`reduction`); the 1998
    /// compilers the paper tested could not (`deps::analyze_loop`).
    pub reductions: Vec<Reduction>,
    /// Array accesses.
    pub arrays: Vec<ArrayRef>,
    /// Names of opaque (separately compiled / pointer-manipulating)
    /// functions called.
    pub calls: Vec<String>,
}

impl Stmt {
    /// An empty statement with a label.
    pub fn new(label: &str) -> Self {
        Stmt {
            label: label.to_string(),
            ..Stmt::default()
        }
    }

    /// Builder: add scalar reads.
    pub fn reads(mut self, names: &[&str]) -> Self {
        self.reads.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Builder: add scalar writes.
    pub fn writes(mut self, names: &[&str]) -> Self {
        self.writes.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Builder: set the source line for report provenance.
    pub fn at(mut self, line: u32) -> Self {
        self.line = line;
        self
    }

    /// Builder: mark one scalar as an associative reduction with an
    /// explicit combining operator (it must also be listed as a write).
    pub fn reduces_op(mut self, name: &str, op: ReduceOp) -> Self {
        self.reductions.push(Reduction {
            name: name.to_string(),
            op,
        });
        self
    }

    /// Builder: add an array access.
    pub fn array(mut self, array: &str, indices: Vec<Expr>, write: bool) -> Self {
        self.arrays.push(ArrayRef {
            array: array.to_string(),
            indices,
            write,
        });
        self
    }

    /// Builder: add an opaque call.
    pub fn call(mut self, name: &str) -> Self {
        self.calls.push(name.to_string());
        self
    }
}

/// A node of a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A statement.
    Stmt(Stmt),
    /// A nested loop.
    Loop(LoopNest),
}

/// A counted loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Label for reports (e.g. `"for threat"`).
    pub label: String,
    /// The loop variable.
    pub var: String,
    /// Variables declared inside the body (privatizable by definition).
    pub private: Vec<String>,
    /// Arrays known to be dead after the loop (scratch storage the source
    /// re-initializes every iteration, like Terrain Masking's `temp`
    /// grid). Deadness-after-loop is a whole-program fact this loop-level
    /// IR cannot derive, so the frontend declares it; whether the array
    /// is *safe* to privatize per iteration (every read covered by an
    /// earlier same-iteration write to the same subscripts) is still
    /// proved by the dataflow pass, never assumed.
    pub scratch: Vec<String>,
    /// Whether the programmer marked the loop with an explicit parallel
    /// pragma (`#pragma multithreaded` / Tera `assert parallel`).
    pub pragma_parallel: bool,
    /// Body nodes in order.
    pub body: Vec<Node>,
}

impl LoopNest {
    /// An empty loop over `var`.
    pub fn new(label: &str, var: &str) -> Self {
        Self {
            label: label.to_string(),
            var: var.to_string(),
            private: Vec::new(),
            scratch: Vec::new(),
            pragma_parallel: false,
            body: Vec::new(),
        }
    }

    /// Builder: declare body-local (private) variables.
    pub fn private(mut self, names: &[&str]) -> Self {
        self.private.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Builder: declare arrays dead after the loop (see
    /// [`LoopNest::scratch`]).
    pub fn scratch(mut self, names: &[&str]) -> Self {
        self.scratch.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Builder: mark with an explicit parallel pragma.
    pub fn pragma(mut self) -> Self {
        self.pragma_parallel = true;
        self
    }

    /// Builder: append a statement.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.body.push(Node::Stmt(s));
        self
    }

    /// Builder: append a nested loop.
    pub fn nest(mut self, l: LoopNest) -> Self {
        self.body.push(Node::Loop(l));
        self
    }

    /// All statements in the body, including nested loops' bodies.
    pub fn all_stmts(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        fn walk<'a>(nodes: &'a [Node], out: &mut Vec<&'a Stmt>) {
            for n in nodes {
                match n {
                    Node::Stmt(s) => out.push(s),
                    Node::Loop(l) => walk(&l.body, out),
                }
            }
        }
        walk(&self.body, &mut out);
        out
    }

    /// Whether scalar `name` is live at the body's entry: some iteration
    /// reads it before writing it, so a value flows in around the back
    /// edge. A written scalar that is not live at entry is defined before
    /// it is used in every iteration: privatizable.
    ///
    /// A read is a [`Stmt::reads`] entry or an identifier-shaped opaque
    /// subscript ([`Expr::opaque_scalar`]); within one statement reads
    /// happen before writes, so `x = x + 1` reads `x`. The body's control
    /// flow is program order plus one back edge per loop, and no edge
    /// skips forward, so every path from the entry reaches a statement
    /// only after passing each one before it. The first statement that
    /// touches `name` therefore decides: live if it reads `name`, not
    /// live if it only writes it. An untouched name is not live.
    pub fn live_at_entry(&self, name: &str) -> bool {
        for s in self.all_stmts() {
            let mut subscripts = s.arrays.iter().flat_map(|a| &a.indices);
            if s.reads.iter().any(|r| r == name)
                || subscripts.any(|e| e.opaque_scalar() == Some(name))
            {
                return true;
            }
            if s.writes.iter().any(|w| w == name) {
                return false;
            }
        }
        false
    }

    /// Variables private to the body at any nesting level (inner loop
    /// variables are private by construction).
    pub fn all_private(&self) -> Vec<String> {
        let mut out = self.private.clone();
        fn walk(nodes: &[Node], out: &mut Vec<String>) {
            for n in nodes {
                if let Node::Loop(l) = n {
                    out.push(l.var.clone());
                    out.extend(l.private.iter().cloned());
                    walk(&l.body, out);
                }
            }
        }
        walk(&self.body, &mut out);
        out
    }

    /// Arrays declared scratch at any nesting level.
    pub fn all_scratch(&self) -> Vec<String> {
        let mut out = self.scratch.clone();
        fn walk(nodes: &[Node], out: &mut Vec<String>) {
            for n in nodes {
                if let Node::Loop(l) = n {
                    out.extend(l.scratch.iter().cloned());
                    walk(&l.body, out);
                }
            }
        }
        walk(&self.body, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let l = LoopNest::new("for i", "i")
            .private(&["t"])
            .stmt(
                Stmt::new("a[i] = b[i]")
                    .array("a", vec![Expr::var("i")], true)
                    .array("b", vec![Expr::var("i")], false),
            )
            .nest(LoopNest::new("for j", "j").stmt(Stmt::new("x").writes(&["t"])));
        assert_eq!(l.all_stmts().len(), 2);
        let private = l.all_private();
        assert!(private.contains(&"t".to_string()));
        assert!(
            private.contains(&"j".to_string()),
            "inner loop var is private"
        );
    }

    #[test]
    fn live_at_entry_is_decided_by_the_first_touch() {
        // for i { y = y + x; x = a[i] }: y's use sees the last iteration's
        // x around the back edge.
        let carried = LoopNest::new("carried", "i")
            .stmt(Stmt::new("y = y + x").reads(&["y", "x"]).writes(&["y"]))
            .stmt(
                Stmt::new("x = a[i]")
                    .writes(&["x"])
                    .array("a", vec![Expr::var("i")], false),
            );
        // for i { t = a[i]; b[i] = t }: t is defined before every use.
        let def_before_use = LoopNest::new("def before use", "i")
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
        // for i: out[k] = i, whose subscript reads k.
        let subscript = LoopNest::new("opaque subscript", "i").stmt(Stmt::new("out[k] = i").array(
            "out",
            vec![Expr::Opaque("k".into())],
            true,
        ));
        // Free text in a subscript reads nothing.
        let free_text = LoopNest::new("free text", "t").stmt(Stmt::new("m[region] = ...").array(
            "m",
            vec![Expr::Opaque("x in region".into())],
            true,
        ));
        let empty = LoopNest::new("empty", "i");
        assert!(empty.all_stmts().is_empty());
        let cases = [
            (&carried, "x", true),
            (&carried, "y", true),
            (&def_before_use, "t", false),
            (&subscript, "k", true),
            (&free_text, "x in region", false),
            (&free_text, "x", false),
            (&empty, "anything", false),
        ];
        for (l, name, live) in cases {
            assert_eq!(l.live_at_entry(name), live, "{name} on {}", l.label);
        }
    }

    #[test]
    fn expr_var_is_identity_affine() {
        assert_eq!(
            Expr::var("i"),
            Expr::Affine {
                var: "i".into(),
                scale: 1,
                offset: 0
            }
        );
    }

    #[test]
    fn all_stmts_walks_nesting_depth() {
        let l = LoopNest::new("outer", "i").nest(
            LoopNest::new("mid", "j").nest(LoopNest::new("inner", "k").stmt(Stmt::new("deep"))),
        );
        let labels: Vec<&str> = l.all_stmts().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["deep"]);
    }
}
