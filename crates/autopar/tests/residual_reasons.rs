//! The dataflow pass rejects a loop only for what the 1998 pass rejects
//! it for, minus what its recognizers cleared.
//!
//! `analyze_loop_dataflow` clears reductions, scalars not live at entry,
//! summarized calls, privatized scratch arrays and compaction stores,
//! and runs `analyze_loop`'s dependence test on what is left. So on
//! every loop its residual reasons are a subsequence of `analyze_loop`'s,
//! and every reason it drops names a scalar, callee or array that one of
//! its clearings names.
//!
//! The subsequence has one exception: a statement that stores to a
//! compacted array twice. The dependence test keeps one reason per
//! array, writing statement and other statement, worded after the first
//! store that conflicts. With the compaction store cleared, the
//! statement's other store takes over, so that array's reasons at that
//! statement may be worded or ordered differently. Both passes still
//! reject the loop, since the second store is never cleared.

use autopar::{
    analyze_loop, analyze_loop_dataflow, ClearedKind, DataflowVerdict, Expr, LoopNest, Node,
    Reason, ReasonKind, ReduceOp, Stmt, Summaries,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// What generated statements draw from: scalars, arrays (`tmp` is the
/// one a loop may declare scratch) and callees (`f` is summarized).
const SCALARS: [&str; 3] = ["n", "s", "x"];
const ARRAYS: [&str; 3] = ["out", "tmp", "m"];
const CALLEES: [&str; 2] = ["f", "h"];

/// One statement effect `(kind, k, subscript)`, each kind an ingredient
/// of the recognizers: a scalar read or write; a sum, min or count
/// update; a compaction store `ARRAYS[k][x] = ...; x++`; an array load or
/// store; a `tmp` access from two subscripts, so that a read is often
/// covered by an earlier write; a call.
fn apply(s: Stmt, (kind, k, e): (usize, usize, Expr)) -> Stmt {
    let x = SCALARS[k];
    let bump = |s: Stmt, op| s.reads(&[x]).writes(&[x]).reduces_op(x, op);
    match kind {
        0 => s.reads(&[x]),
        1 => s.writes(&[x]),
        2 => bump(s, ReduceOp::Sum),
        3 => bump(s, ReduceOp::Min),
        4 => bump(s, ReduceOp::Count),
        5 => bump(s, ReduceOp::Count).array(ARRAYS[k], vec![Expr::Opaque(x.into())], true),
        6 | 7 => s.array(ARRAYS[k], vec![e], kind == 7),
        8 | 9 => {
            let e = [Expr::Opaque("k".into()), Expr::var("i")][k % 2].clone();
            s.array("tmp", vec![e], kind == 9)
        }
        _ => s.call(CALLEES[k % 2]),
    }
}

/// A subscript: affine in the analyzed `i` or a nested `j`, constant, an
/// identifier (which reads that scalar) or free text.
fn subscript() -> impl Strategy<Value = Expr> {
    (0usize..5, -2i64..3, -3i64..4).prop_map(|(kind, a, b)| match kind {
        0 | 1 => Expr::Affine {
            var: ["i", "j"][kind].into(),
            scale: a,
            offset: b,
        },
        2 => Expr::Const(a),
        _ => Expr::Opaque(
            SCALARS
                .get(b.unsigned_abs() as usize)
                .map_or("x y", |x| x)
                .into(),
        ),
    })
}

/// A random nest: each event adds a statement of one to three effects to
/// the innermost open loop (four in six), opens a nested `for j`, or
/// closes the innermost one, up to three levels below the analyzed
/// loop, which may declare one scalar private and `tmp` scratch.
fn arb_loop() -> impl Strategy<Value = LoopNest> {
    let effects = proptest::collection::vec((0usize..11, 0usize..3, subscript()), 1..4);
    let events = proptest::collection::vec((0usize..6, effects), 1..10);
    (events, 0usize..4, any::<bool>()).prop_map(|(events, private, scratch)| {
        let mut outer = LoopNest::new("for i", "i");
        outer
            .private
            .extend(SCALARS.get(private).map(|p| p.to_string()));
        if scratch {
            outer = outer.scratch(&["tmp"]);
        }
        let mut open = vec![outer];
        for (k, (kind, effects)) in events.into_iter().enumerate() {
            if kind == 4 && open.len() < 4 {
                open.push(LoopNest::new("for j", "j"));
            } else if kind == 5 && open.len() > 1 {
                let inner = open.pop().unwrap();
                open.last_mut().unwrap().body.push(Node::Loop(inner));
            } else {
                let s = Stmt::new(&format!("s{k}")).at(k as u32 + 1);
                let s = effects.into_iter().fold(s, apply);
                open.last_mut().unwrap().body.push(Node::Stmt(s));
            }
        }
        while let Some(inner) = open.pop() {
            match open.last_mut() {
                Some(l) => l.body.push(Node::Loop(inner)),
                None => return inner,
            }
        }
        unreachable!("the analyzed loop is always open")
    })
}

/// The scalar, callee or array a reason names.
fn named(k: &ReasonKind) -> &str {
    match k {
        ReasonKind::ScalarDependence { name } | ReasonKind::OpaqueCall { name } => name,
        ReasonKind::DataDependentSubscript { array } | ReasonKind::ArrayConflict { array, .. } => {
            array
        }
    }
}

/// Whether `r` names a compacted array at a statement that stores to it
/// twice or more: the exception in the module doc.
fn beside_a_compaction(l: &LoopNest, dv: &DataflowVerdict, r: &Reason) -> bool {
    let array = named(&r.kind);
    let stores = l.all_stmts().into_iter().filter(|s| s.label == r.stmt);
    let stores = stores
        .flat_map(|s| &s.arrays)
        .filter(|a| a.write && a.array == array);
    stores.count() > 1 && dv.compactions.iter().any(|(a, _)| a == array)
}

fn check(l: &LoopNest, summaries: &Summaries) -> Result<(), String> {
    let base = analyze_loop(l).reasons;
    let dv = analyze_loop_dataflow(l, summaries);
    let residual = &dv.verdict.reasons;
    let mut rest = base.iter().filter(|b| !beside_a_compaction(l, &dv, b));
    for r in residual.iter().filter(|r| !beside_a_compaction(l, &dv, r)) {
        if !rest.any(|b| b == r) {
            return Err(format!("residual `{r}` is not in order among {base:?}"));
        }
    }
    let cleared: BTreeSet<&str> = (dv.clearings.iter())
        .flat_map(|c| match &c.kind {
            ClearedKind::Reduction { name, .. }
            | ClearedKind::PrivatizedScalar { name }
            | ClearedKind::PureCall { name, .. } => vec![name.as_str()],
            ClearedKind::PrivatizedArray { array } => vec![array.as_str()],
            ClearedKind::Compaction { array, counter } => vec![array.as_str(), counter],
        })
        .collect();
    match base
        .iter()
        .find(|b| !residual.contains(b) && !cleared.contains(named(&b.kind)))
    {
        Some(b) => Err(format!("dropped `{b}`, which no clearing names:\n{dv}")),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn residual_reasons_are_the_1998_reasons_minus_the_cleared(l in arb_loop()) {
        let mut summaries = Summaries::empty();
        summaries.add("f", "pure");
        let checked = check(&l, &summaries);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The benchmark encodings, and the exception: `s1` stores to the
/// compacted `out` twice, so the 1998 pass words its `out` reasons after
/// `out[n]` and the dataflow pass, which cleared `out[n]`, after `out[0]`.
#[test]
fn benchmark_loops_and_the_compaction_exception() {
    for l in autopar::programs::benchmark_loops() {
        check(&l, &Summaries::benchmark()).unwrap_or_else(|e| panic!("{}: {e}", l.label));
    }
    let l = LoopNest::new("for i", "i")
        .stmt(Stmt::new("s0").array("out", vec![Expr::Const(0)], true))
        .stmt(apply(Stmt::new("s1"), (5, 0, Expr::Const(0))).array(
            "out",
            vec![Expr::Const(0)],
            true,
        ));
    let dv = analyze_loop_dataflow(&l, &Summaries::empty());
    let with_s0 = |r: &Reason| r.stmt == "s1" && r.to_string().contains("(vs s0)");
    assert!(!analyze_loop(&l).reasons.iter().any(with_s0));
    assert!(dv.verdict.reasons.iter().any(with_s0), "{dv}");
    check(&l, &Summaries::empty()).unwrap();
}
