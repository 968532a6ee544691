//! The dependence analyzer: decides whether a loop's iterations can run
//! concurrently, conservatively — exactly the stance of the production
//! compilers the paper tested.
//!
//! A loop is auto-parallelizable when the analyzer can *prove* that no
//! iteration writes a location another iteration touches:
//!
//! * a scalar written in the body and visible outside an iteration
//!   (not private, not the loop variable) is a carried dependence;
//! * two references to the same array, at least one a write, are
//!   independent across iterations only if some dimension provably
//!   separates iterations: both subscripts affine in the loop variable
//!   with equal nonzero scale and equal offset (same iteration ⇒ same
//!   element), or constants/offsets that fail the GCD feasibility test;
//! * any opaque subscript, any opaque call, forces a conservative "may
//!   conflict";
//! * an explicit parallel pragma overrides the analysis (the programmer
//!   asserts independence) — this is how the paper's transformed programs
//!   were actually compiled.
//!
//! The test is stated once, in `blocking_reasons`. [`analyze_loop`] runs
//! it with nothing cleared; the dataflow pass ([`crate::reduction`]) runs
//! it on what its recognizers leave.

use crate::ir::{ArrayRef, Expr, LoopNest, Stmt};
use crate::report::{LoopVerdict, Reason, ReasonKind};
use std::collections::BTreeSet;

/// Greatest common divisor.
fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Can two affine subscripts `s1*i + o1` and `s2*i' + o2` refer to the
/// same element for *different* iterations `i ≠ i'`? (The GCD feasibility
/// test, unbounded iteration space — conservative.)
fn affine_may_conflict_cross_iteration(s1: i64, o1: i64, s2: i64, o2: i64) -> bool {
    // Same-subscript special case: s1*i + o1 == s2*i' + o2 with i != i'.
    if s1 == s2 && o1 == o2 {
        // Equal subscript functions: same element only in the same
        // iteration (when the scale is nonzero).
        return s1 == 0;
    }
    // Solve s1*i - s2*i' = o2 - o1 over the integers.
    if s1 == 0 && s2 == 0 {
        return o1 == o2; // both constant: conflict iff equal
    }
    let g = gcd(s1, s2);
    (o2 - o1) % g == 0
}

/// One dimension of a subscript pair: can the pair conflict across
/// iterations of `loop_var`?
fn dim_may_conflict(a: &Expr, b: &Expr, loop_var: &str) -> bool {
    use Expr::*;
    match (a, b) {
        (Const(x), Const(y)) => x == y,
        (
            Affine {
                var: v1,
                scale: s1,
                offset: o1,
            },
            Affine {
                var: v2,
                scale: s2,
                offset: o2,
            },
        ) if v1 == loop_var && v2 == loop_var => {
            affine_may_conflict_cross_iteration(*s1, *o1, *s2, *o2)
        }
        (Affine { var, scale, offset }, Const(c)) | (Const(c), Affine { var, scale, offset })
            if var == loop_var =>
        {
            // scale*i + offset == c solvable?
            *scale == 0 && offset == c || *scale != 0 && (c - offset) % scale == 0
        }
        // Subscripts in variables other than the loop variable, or opaque:
        // the compiler cannot reason — assume conflict.
        _ => true,
    }
}

/// Can the reference pair conflict across iterations? Independent if ANY
/// dimension provably separates them.
fn refs_may_conflict(a: &ArrayRef, b: &ArrayRef, loop_var: &str) -> bool {
    if a.array != b.array {
        return false;
    }
    if a.indices.len() != b.indices.len() {
        return true; // ill-typed aliasing — be conservative
    }
    a.indices
        .iter()
        .zip(&b.indices)
        .all(|(x, y)| dim_may_conflict(x, y, loop_var))
}

/// What the dataflow pass ([`crate::reduction`]) proved harmless before
/// the dependence test runs: written scalars, callees, and stores as
/// `(statement, reference)` indices into [`LoopNest::all_stmts`]. A
/// cleared store is skipped as the writing side of a pair only; it still
/// conflicts with the other stores to its array. The 1998 pass clears
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Cleared {
    pub(crate) scalars: BTreeSet<String>,
    pub(crate) calls: BTreeSet<String>,
    pub(crate) stores: BTreeSet<(usize, usize)>,
}

/// Analyze one loop (not descending into nested loops' own verdicts — call
/// per loop of interest). Returns the verdict with every blocking reason.
/// This is the 1998-compiler behaviour the paper measured: reductions are
/// NOT recognized.
pub fn analyze_loop(l: &LoopNest) -> LoopVerdict {
    if l.pragma_parallel {
        return LoopVerdict::by_pragma(l);
    }
    let reasons = blocking_reasons(l, &l.all_stmts(), &Cleared::default());
    LoopVerdict::from_reasons(l, reasons)
}

/// The dependence test: every obstacle to running `l`'s iterations
/// concurrently that `cleared` does not cover, each anchored at its
/// statement — carried scalars, then opaque calls, then array pairs.
/// `stmts` is `l.all_stmts()`.
pub(crate) fn blocking_reasons(l: &LoopNest, stmts: &[&Stmt], cleared: &Cleared) -> Vec<Reason> {
    let mut reasons: Vec<Reason> = Vec::new();
    let private: BTreeSet<String> = l.all_private().into_iter().collect();

    // Scalar dependences: a written scalar that is not private and not the
    // loop variable is carried (ordering matters across iterations).
    let mut flagged: BTreeSet<&str> = BTreeSet::new();
    for s in stmts {
        for w in &s.writes {
            if w != &l.var
                && !private.contains(w)
                && !cleared.scalars.contains(w)
                && flagged.insert(w)
            {
                reasons.push(Reason::at(
                    ReasonKind::ScalarDependence { name: w.clone() },
                    s,
                ));
            }
        }
    }

    // Opaque calls thwart everything.
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for s in stmts {
        for c in &s.calls {
            if !cleared.calls.contains(c) && called.insert(c) {
                reasons.push(Reason::at(ReasonKind::OpaqueCall { name: c.clone() }, s));
            }
        }
    }

    // Array dependences: every (write, any) pair across iterations —
    // including the write against *itself* in another iteration, which is
    // how `intervals[num_intervals]`-style stores and overlapping-region
    // stores are caught.
    let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for (i, s1) in stmts.iter().enumerate() {
        for (r, a) in s1.arrays.iter().enumerate() {
            if !a.write || cleared.stores.contains(&(i, r)) {
                continue;
            }
            for s2 in stmts {
                for b in &s2.arrays {
                    if refs_may_conflict(a, b, &l.var) {
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
    reasons
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(l: &LoopNest) -> LoopVerdict {
        analyze_loop(l)
    }

    #[test]
    fn simple_affine_loop_is_parallelizable() {
        // for i: a[i] = b[i] + c[i]
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[i]=b[i]+c[i]")
                .array("a", vec![Expr::var("i")], true)
                .array("b", vec![Expr::var("i")], false)
                .array("c", vec![Expr::var("i")], false),
        );
        let verdict = v(&l);
        assert!(verdict.parallel, "{verdict:?}");
    }

    #[test]
    fn loop_carried_affine_dependence_is_rejected() {
        // for i: a[i] = a[i-d] + b[i], at d = 1 and as the distance-2
        // stencil
        for offset in [-1, -2] {
            let l = LoopNest::new("for i", "i").stmt(
                Stmt::new("a[i]=a[i-d]+b[i]")
                    .array("a", vec![Expr::var("i")], true)
                    .array(
                        "a",
                        vec![Expr::Affine {
                            var: "i".into(),
                            scale: 1,
                            offset,
                        }],
                        false,
                    )
                    .array("b", vec![Expr::var("i")], false),
            );
            let verdict = v(&l);
            assert!(!verdict.parallel, "offset {offset}");
            assert!(
                matches!(verdict.reasons[0].kind, ReasonKind::ArrayConflict { .. }),
                "offset {offset}: {verdict:?}"
            );
        }
    }

    #[test]
    fn gcd_test_separates_odd_and_even() {
        // for i: a[2i] = a[2i+1] — writes even, reads odd: independent.
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[2i]=a[2i+1]")
                .array(
                    "a",
                    vec![Expr::Affine {
                        var: "i".into(),
                        scale: 2,
                        offset: 0,
                    }],
                    true,
                )
                .array(
                    "a",
                    vec![Expr::Affine {
                        var: "i".into(),
                        scale: 2,
                        offset: 1,
                    }],
                    false,
                ),
        );
        assert!(v(&l).parallel, "{:?}", v(&l));
    }

    #[test]
    fn shared_scalar_accumulator_is_rejected() {
        // for i: sum = sum + a[i]
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("sum+=a[i]")
                .reads(&["sum"])
                .writes(&["sum"])
                .array("a", vec![Expr::var("i")], false),
        );
        let verdict = v(&l);
        assert!(!verdict.parallel);
        assert_eq!(verdict.reasons.len(), 1);
        assert_eq!(
            verdict.reasons[0].kind,
            ReasonKind::ScalarDependence { name: "sum".into() }
        );
        assert_eq!(verdict.reasons[0].stmt, "sum+=a[i]");
    }

    #[test]
    fn private_scalars_do_not_block() {
        // for i: { t = a[i]; b[i] = t }  with t declared in the body
        let l = LoopNest::new("for i", "i").private(&["t"]).stmt(
            Stmt::new("t=a[i];b[i]=t")
                .writes(&["t"])
                .reads(&["t"])
                .array("a", vec![Expr::var("i")], false)
                .array("b", vec![Expr::var("i")], true),
        );
        assert!(v(&l).parallel, "{:?}", v(&l));
    }

    #[test]
    fn opaque_call_blocks() {
        let l = LoopNest::new("for i", "i").stmt(Stmt::new("f(i)").call("f").array(
            "a",
            vec![Expr::var("i")],
            true,
        ));
        let verdict = v(&l);
        assert!(!verdict.parallel);
        assert!(verdict
            .reasons
            .iter()
            .any(|r| r.kind == ReasonKind::OpaqueCall { name: "f".into() }));
    }

    #[test]
    fn data_dependent_subscript_blocks() {
        // for i: out[count] = i  — the Threat Analysis pattern.
        let l = LoopNest::new("for i", "i").stmt(Stmt::new("out[count]=...").array(
            "out",
            vec![Expr::Opaque("count".into())],
            true,
        ));
        let verdict = v(&l);
        assert!(!verdict.parallel);
        assert!(verdict.reasons.iter().any(|r| r.kind
            == ReasonKind::DataDependentSubscript {
                array: "out".into()
            }));
    }

    #[test]
    fn each_reason_is_listed_once() {
        // out[k] meets itself and the next statement's out[i]: two pairs,
        // one reason.
        let l = LoopNest::new("for i", "i")
            .stmt(Stmt::new("out[k] = i").array("out", vec![Expr::Opaque("k".into())], true))
            .stmt(
                Stmt::new("b[i] = out[i]")
                    .array("out", vec![Expr::var("i")], false)
                    .array("b", vec![Expr::var("i")], true),
            );
        let verdict = v(&l);
        assert_eq!(verdict.reasons.len(), 1, "{verdict}");
    }

    #[test]
    fn leading_loop_dimension_separates_rows() {
        // for c: out[c][anything] = ... — per-iteration rows are disjoint.
        let l = LoopNest::new("for c", "c").stmt(
            Stmt::new("out[c][k]=...")
                .array("out", vec![Expr::var("c"), Expr::Opaque("k".into())], true)
                .array(
                    "out",
                    vec![Expr::var("c"), Expr::Opaque("k2".into())],
                    false,
                ),
        );
        assert!(v(&l).parallel, "{:?}", v(&l));
    }

    #[test]
    fn pragma_overrides_analysis() {
        let l = LoopNest::new("for i", "i")
            .pragma()
            .stmt(Stmt::new("sum+=a[i]").writes(&["sum"]).call("f"));
        let verdict = v(&l);
        assert!(verdict.parallel);
        assert!(verdict.by_pragma);
    }

    #[test]
    fn distinct_arrays_never_conflict() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[i]=b[j]")
                .array("a", vec![Expr::var("i")], true)
                .array("b", vec![Expr::Opaque("j".into())], false),
        );
        assert!(v(&l).parallel, "{:?}", v(&l));
    }

    #[test]
    fn inner_loop_variable_subscript_is_conservative() {
        // for i { for j: a[j] = ... } — parallelizing *i* would have all
        // iterations write the same a[j] range.
        let outer = LoopNest::new("for i", "i").nest(
            LoopNest::new("for j", "j").stmt(Stmt::new("a[j]=...").array(
                "a",
                vec![Expr::var("j")],
                true,
            )),
        );
        let verdict = v(&outer);
        assert!(!verdict.parallel, "{verdict:?}");
    }
}
