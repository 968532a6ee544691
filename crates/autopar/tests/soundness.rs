//! Soundness of the dependence analyzer, checked by brute force.
//!
//! The one property an auto-parallelizing compiler must never violate:
//! if it declares a loop parallel, no two distinct iterations may touch
//! the same array element with at least one write. For affine programs
//! over a small iteration domain this is decidable by enumeration, so we
//! generate random affine loops and verify every "parallel" verdict
//! against the enumerated ground truth.
//!
//! (The converse — rejecting loops that are actually independent — is
//! allowed: the analyzer is conservative, exactly like the compilers in
//! the paper.)

use autopar::reduction::{analyze_loop_dataflow, DataflowOptions};
use autopar::{analyze_loop, ArrayRef, Expr, LoopNest, Stmt};
use proptest::prelude::*;
use std::collections::HashMap;

const TRIP: i64 = 12; // iteration domain 0..TRIP

#[derive(Debug, Clone)]
struct GenAccess {
    array: usize,
    scale: i64,
    offset: i64,
    write: bool,
}

fn arb_access() -> impl Strategy<Value = GenAccess> {
    (0usize..2, -3i64..4, -10i64..10, any::<bool>()).prop_map(|(array, scale, offset, write)| {
        GenAccess {
            array,
            scale,
            offset,
            write,
        }
    })
}

fn build_loop(accesses: &[GenAccess]) -> LoopNest {
    let mut stmt = Stmt::new("generated");
    for a in accesses {
        stmt.arrays.push(ArrayRef {
            array: format!("arr{}", a.array),
            indices: vec![Expr::Affine {
                var: "i".into(),
                scale: a.scale,
                offset: a.offset,
            }],
            write: a.write,
        });
    }
    LoopNest::new("for i (generated)", "i").stmt(stmt)
}

/// Ground truth: does any pair of accesses conflict across distinct
/// iterations of `0..TRIP`?
fn has_cross_iteration_conflict(accesses: &[GenAccess]) -> bool {
    // address map: (array, element) -> iterations that write / touch it
    let mut writes: HashMap<(usize, i64), Vec<i64>> = HashMap::new();
    let mut touches: HashMap<(usize, i64), Vec<i64>> = HashMap::new();
    for i in 0..TRIP {
        for a in accesses {
            let addr = (a.array, a.scale * i + a.offset);
            touches.entry(addr).or_default().push(i);
            if a.write {
                writes.entry(addr).or_default().push(i);
            }
        }
    }
    for (addr, ws) in &writes {
        for &w in ws {
            if touches[addr].iter().any(|&t| t != w) {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// SOUNDNESS: a "parallel" verdict implies no enumerated conflict.
    #[test]
    fn parallel_verdicts_are_sound(accesses in proptest::collection::vec(arb_access(), 1..5)) {
        let verdict = analyze_loop(&build_loop(&accesses));
        if verdict.parallel {
            prop_assert!(
                !has_cross_iteration_conflict(&accesses),
                "analyzer declared parallel but iterations conflict: {accesses:?}"
            );
        }
    }

    /// COMPLETENESS on the easy fragment: identity subscripts with all
    /// distinct arrays must always parallelize (this is what the era's
    /// compilers handled — the paper's Fortran-matrix caveat).
    #[test]
    fn simple_disjoint_identity_loops_parallelize(n_arrays in 1usize..4) {
        let accesses: Vec<GenAccess> = (0..n_arrays)
            .map(|k| GenAccess { array: k, scale: 1, offset: 0, write: k == 0 })
            .collect();
        let mut stmt = Stmt::new("ident");
        for a in &accesses {
            stmt.arrays.push(ArrayRef {
                array: format!("uniq{}", a.array),
                indices: vec![Expr::var("i")],
                write: a.write,
            });
        }
        let verdict = analyze_loop(&LoopNest::new("for i", "i").stmt(stmt));
        prop_assert!(verdict.parallel, "{verdict:?}");
    }

    /// Pragmas always win, whatever the body (the paper's escape hatch).
    #[test]
    fn pragma_always_parallelizes(accesses in proptest::collection::vec(arb_access(), 1..5)) {
        let mut l = build_loop(&accesses);
        l.pragma_parallel = true;
        let verdict = analyze_loop(&l);
        prop_assert!(verdict.parallel && verdict.by_pragma);
    }

    /// SOUNDNESS of the dataflow pass on the same fragment: the stronger
    /// analyzer clears more obstacles, but on plain affine loops it must
    /// still never declare a conflicting loop parallel.
    #[test]
    fn dataflow_parallel_verdicts_are_sound(accesses in proptest::collection::vec(arb_access(), 1..5)) {
        let dv = analyze_loop_dataflow(&build_loop(&accesses), &DataflowOptions::default());
        if dv.verdict.parallel {
            prop_assert!(
                !has_cross_iteration_conflict(&accesses),
                "dataflow pass declared parallel but iterations conflict: {accesses:?}"
            );
        }
    }

    /// MONOTONICITY: the dataflow pass accepts everything the
    /// conservative pass accepts.
    #[test]
    fn dataflow_subsumes_conservative(accesses in proptest::collection::vec(arb_access(), 1..5)) {
        let l = build_loop(&accesses);
        if analyze_loop(&l).parallel {
            prop_assert!(
                analyze_loop_dataflow(&l, &DataflowOptions::default()).verdict.parallel
            );
        }
    }
}
