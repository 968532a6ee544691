//! Execution soundness of the dataflow pass: every loop it newly marks
//! parallel must produce BIT-IDENTICAL output when executed under the
//! emitted plan — reductions privatized and combined from partials,
//! privatized scalars given fresh per-iteration copies (last value out),
//! compaction sections concatenated in iteration order — versus the
//! sequential encoding.
//!
//! We generate random loops in a small *executable* subset (stores,
//! loads, reductions, compaction, a deliberately-carried scalar),
//! lower them to the IR, analyze, and for every PARALLEL verdict run both
//! executions over wrapping i64 arithmetic (where sum/min/max are exactly
//! associative and commutative, so the comparison is exact, not
//! approximate). Privatized copies start from a sentinel value: if the
//! analysis ever privatized a scalar that actually carries a value, the
//! sentinel leaks into the output and the comparison fails.

use autopar::reduction::{analyze_loop_dataflow, Summaries};
use autopar::{analyze_loop, emit_plan, Expr, LoopNest, ReduceOp, Stmt};
use proptest::prelude::*;
use std::collections::BTreeMap;

const TRIP: i64 = 12;
const ARRAY_LEN: usize = 128;
const BASE: i64 = 64; // address bias keeping all subscripts in range
const SENTINEL: i64 = 0x5EAD_BEEF;

/// One executable operation of the loop body.
#[derive(Debug, Clone)]
enum Op {
    /// `arr[scale*i + offset] = (i+1).wrapping_mul(salt)`
    Store {
        array: usize,
        scale: i64,
        offset: i64,
        salt: i64,
    },
    /// `t<tmp> = arr[scale*i + offset]`
    Load {
        tmp: usize,
        array: usize,
        scale: i64,
        offset: i64,
    },
    /// `arr[scale*i + offset] = t<tmp>`
    StoreTmp {
        tmp: usize,
        array: usize,
        scale: i64,
        offset: i64,
    },
    /// `red<slot> op= value(i, tmp0)`
    Reduce {
        slot: usize,
        op: ReduceOp,
        salt: i64,
    },
    /// `out[n] = value; n++` — but only when `i % keep == 0`, so section
    /// lengths vary per iteration (the data-dependent part of the idiom
    /// is modeled by the *encoding* being data-dependent; execution here
    /// varies the count per iteration).
    Compact { salt: i64, keep: i64 },
    /// `carried = carried.wrapping_add(i)` — a genuine loop-carried
    /// scalar, NOT annotated as a reduction: must always be rejected.
    Carried,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, -2i64..3, -8i64..8, 1i64..100).prop_map(|(array, scale, offset, salt)| {
            Op::Store {
                array,
                scale,
                offset,
                salt,
            }
        }),
        (0usize..2, 0usize..2, -2i64..3, -8i64..8).prop_map(|(tmp, array, scale, offset)| {
            Op::Load {
                tmp,
                array,
                scale,
                offset,
            }
        }),
        (0usize..2, 0usize..2, -2i64..3, -8i64..8).prop_map(|(tmp, array, scale, offset)| {
            Op::StoreTmp {
                tmp,
                array,
                scale,
                offset,
            }
        }),
        (
            0usize..2,
            prop_oneof![
                Just(ReduceOp::Sum),
                Just(ReduceOp::Min),
                Just(ReduceOp::Max)
            ],
            1i64..100
        )
            .prop_map(|(slot, op, salt)| Op::Reduce { slot, op, salt }),
        (1i64..100, 1i64..4).prop_map(|(salt, keep)| Op::Compact { salt, keep }),
        Just(Op::Carried),
    ]
}

fn tmp_name(t: usize) -> String {
    format!("t{t}")
}
fn red_name(s: usize) -> String {
    format!("red{s}")
}
fn array_name(a: usize) -> String {
    format!("arr{a}")
}

fn subscript(scale: i64, offset: i64) -> Expr {
    Expr::Affine {
        var: "i".into(),
        scale,
        offset,
    }
}

/// Lower the ops to the analyzer's IR, one statement per op. The
/// reduction operator recorded for a slot is the *first* op seen for it;
/// later mixed-operator ops keep their own annotation, which the
/// analyzer must then reject as inconsistent.
fn lower(ops: &[Op]) -> LoopNest {
    let mut l = LoopNest::new("for i (generated)", "i");
    for (k, op) in ops.iter().enumerate() {
        let label = format!("op{k}");
        let s = match op {
            Op::Store {
                array,
                scale,
                offset,
                ..
            } => {
                Stmt::new(&label).array(&array_name(*array), vec![subscript(*scale, *offset)], true)
            }
            Op::Load {
                tmp,
                array,
                scale,
                offset,
            } => Stmt::new(&label).writes(&[&tmp_name(*tmp)]).array(
                &array_name(*array),
                vec![subscript(*scale, *offset)],
                false,
            ),
            Op::StoreTmp {
                tmp,
                array,
                scale,
                offset,
            } => Stmt::new(&label).reads(&[&tmp_name(*tmp)]).array(
                &array_name(*array),
                vec![subscript(*scale, *offset)],
                true,
            ),
            Op::Reduce { slot, op, .. } => {
                let name = red_name(*slot);
                Stmt::new(&label)
                    .reads(&[&name])
                    .writes(&[&name])
                    .reduces_op(&name, *op)
            }
            Op::Compact { .. } => Stmt::new(&label)
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", ReduceOp::Count)
                .array("out", vec![Expr::Opaque("n".into())], true),
            Op::Carried => Stmt::new(&label).reads(&["carried"]).writes(&["carried"]),
        };
        l = l.stmt(s);
    }
    l
}

/// Machine state after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Memory {
    arrays: BTreeMap<String, Vec<i64>>,
    scalars: BTreeMap<String, i64>,
    out: Vec<i64>,
}

fn fresh_memory() -> Memory {
    let mut arrays = BTreeMap::new();
    for a in 0..2 {
        arrays.insert(array_name(a), vec![0i64; ARRAY_LEN]);
    }
    Memory {
        arrays,
        scalars: BTreeMap::new(),
        out: Vec::new(),
    }
}

fn addr(scale: i64, offset: i64, i: i64) -> usize {
    usize::try_from(scale * i + offset + BASE).expect("address in range")
}

fn value(i: i64, salt: i64) -> i64 {
    (i + 1).wrapping_mul(salt)
}

fn reduce_identity(op: ReduceOp) -> i64 {
    match op {
        ReduceOp::Sum | ReduceOp::Count => 0,
        ReduceOp::Min => i64::MAX,
        ReduceOp::Max => i64::MIN,
    }
}

fn combine(op: ReduceOp, a: i64, b: i64) -> i64 {
    match op {
        ReduceOp::Sum | ReduceOp::Count => a.wrapping_add(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
    }
}

/// The sequential (reference) execution: natural order, shared scalars.
fn run_sequential(ops: &[Op]) -> Memory {
    let mut m = fresh_memory();
    let mut tmps = [0i64; 2];
    let mut reds: BTreeMap<usize, i64> = BTreeMap::new();
    let mut carried = 0i64;
    for i in 0..TRIP {
        for op in ops {
            match op {
                Op::Store {
                    array,
                    scale,
                    offset,
                    salt,
                } => {
                    m.arrays.get_mut(&array_name(*array)).unwrap()[addr(*scale, *offset, i)] =
                        value(i, *salt)
                }
                Op::Load {
                    tmp,
                    array,
                    scale,
                    offset,
                } => tmps[*tmp] = m.arrays[&array_name(*array)][addr(*scale, *offset, i)],
                Op::StoreTmp {
                    tmp,
                    array,
                    scale,
                    offset,
                } => {
                    m.arrays.get_mut(&array_name(*array)).unwrap()[addr(*scale, *offset, i)] =
                        tmps[*tmp]
                }
                Op::Reduce { slot, op, salt } => {
                    let cur = reds.entry(*slot).or_insert_with(|| reduce_identity(*op));
                    *cur = combine(*op, *cur, value(i, *salt));
                }
                Op::Compact { salt, keep } => {
                    if i % keep == 0 {
                        m.out.push(value(i, *salt));
                    }
                }
                Op::Carried => carried = carried.wrapping_add(i),
            }
        }
    }
    for (t, &v) in tmps.iter().enumerate() {
        m.scalars.insert(tmp_name(t), v);
    }
    for (slot, v) in reds {
        m.scalars.insert(red_name(slot), v);
    }
    m.scalars.insert("carried".into(), carried);
    m.scalars.insert("n".into(), m.out.len() as i64);
    m
}

/// The plan-honoring "parallel" execution: iterations visited in an
/// adversarial order, privatized scalars starting from SENTINEL each
/// iteration, reductions accumulated as per-chunk partials combined
/// afterward, compaction buffered per iteration and concatenated in
/// iteration order. Panics if a written scalar is neither privatized nor
/// a reduction — a parallel verdict must account for every scalar.
fn run_parallel(ops: &[Op], order: &[i64]) -> Memory {
    let l = lower(ops);
    let dv = analyze_loop_dataflow(&l, &Summaries::empty());
    assert!(dv.verdict.parallel, "caller checks");
    let plan = emit_plan(&l, &dv).expect("parallel loops emit a plan");

    let is_privatized = |name: &str| plan.privatized.iter().any(|p| p == name);
    let is_reduction = |name: &str| plan.reductions.iter().any(|r| r.name == name);
    for op in ops {
        let written: Option<String> = match op {
            Op::Load { tmp, .. } => Some(tmp_name(*tmp)),
            Op::Reduce { slot, .. } => Some(red_name(*slot)),
            Op::Compact { .. } => Some("n".into()),
            Op::Carried => Some("carried".into()),
            _ => None,
        };
        if let Some(w) = written {
            assert!(
                is_privatized(&w) || is_reduction(&w),
                "parallel verdict left scalar `{w}` unaccounted for"
            );
        }
    }

    let mut m = fresh_memory();
    // Privatized temps get fresh poisoned copies each iteration; temps
    // the loop never writes are read-only and copy in their initial
    // value (firstprivate), exactly as sequential execution sees them.
    let tmp_init: [i64; 2] = [0, 1].map(|t| {
        if is_privatized(&tmp_name(t)) {
            SENTINEL
        } else {
            0
        }
    });
    // Three uneven "workers", each owning a slice of the adversarial
    // order, each with its own reduction partials.
    let chunk_bounds = [0, order.len() / 3, order.len() / 2, order.len()];
    let mut red_partials: Vec<BTreeMap<usize, i64>> = vec![BTreeMap::new(); 3];
    let mut carried_partials = [0i64; 3];
    let mut sections: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    let mut last_tmps: BTreeMap<i64, [i64; 2]> = BTreeMap::new();
    for w in 0..3 {
        for &i in &order[chunk_bounds[w]..chunk_bounds[w + 1]] {
            let mut tmps = tmp_init;
            let section = sections.entry(i).or_default();
            for op in ops {
                match op {
                    Op::Store {
                        array,
                        scale,
                        offset,
                        salt,
                    } => {
                        m.arrays.get_mut(&array_name(*array)).unwrap()[addr(*scale, *offset, i)] =
                            value(i, *salt)
                    }
                    Op::Load {
                        tmp,
                        array,
                        scale,
                        offset,
                    } => tmps[*tmp] = m.arrays[&array_name(*array)][addr(*scale, *offset, i)],
                    Op::StoreTmp {
                        tmp,
                        array,
                        scale,
                        offset,
                    } => {
                        m.arrays.get_mut(&array_name(*array)).unwrap()[addr(*scale, *offset, i)] =
                            tmps[*tmp]
                    }
                    Op::Reduce { slot, op, salt } => {
                        let cur = red_partials[w]
                            .entry(*slot)
                            .or_insert_with(|| reduce_identity(*op));
                        *cur = combine(*op, *cur, value(i, *salt));
                    }
                    Op::Compact { salt, keep } => {
                        if i % keep == 0 {
                            section.push(value(i, *salt));
                        }
                    }
                    Op::Carried => carried_partials[w] = carried_partials[w].wrapping_add(i),
                }
            }
            last_tmps.insert(i, tmps);
        }
    }
    // Combine partials in deterministic worker order.
    let red_ops: BTreeMap<usize, ReduceOp> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Reduce { slot, op, .. } => Some((*slot, *op)),
            _ => None,
        })
        .collect();
    for (&slot, &rop) in &red_ops {
        let mut acc = reduce_identity(rop);
        for p in &red_partials {
            if let Some(&v) = p.get(&slot) {
                acc = combine(rop, acc, v);
            }
        }
        m.scalars.insert(red_name(slot), acc);
    }
    if ops.iter().any(|o| matches!(o, Op::Carried)) {
        // Only reachable if `carried` was (wrongly) treated as a
        // reduction; combine so the mismatch surfaces in the comparison
        // rather than by panic.
        m.scalars.insert(
            "carried".into(),
            carried_partials
                .iter()
                .fold(0i64, |a, &b| a.wrapping_add(b)),
        );
    }
    // Compaction: concatenate sections in iteration order (BTreeMap walks
    // keys ascending).
    for (_, sec) in sections {
        m.out.extend(sec);
    }
    m.scalars.insert("n".into(), m.out.len() as i64);
    // Lastprivate: the sequential final value of a privatized tmp is the
    // last iteration's copy.
    let final_tmps = last_tmps.get(&(TRIP - 1)).copied().unwrap_or(tmp_init);
    for (t, &v) in final_tmps.iter().enumerate() {
        m.scalars.insert(tmp_name(t), v);
    }
    m
}

/// Normalize: sequential runs always record every scalar; parallel runs
/// only record scalars the ops actually touch. Compare on the touched
/// set.
fn compare(ops: &[Op], seq: &Memory, par: &Memory) {
    assert_eq!(seq.arrays, par.arrays, "array state diverged");
    assert_eq!(seq.out, par.out, "compaction output diverged");
    for (name, v) in &par.scalars {
        // Only compare temps some op actually writes; untouched temps
        // are implementation detail of the harness.
        let tmp_written = ops
            .iter()
            .any(|o| matches!(o, Op::Load { tmp, .. } if tmp_name(*tmp) == *name));
        if name.starts_with('t') && !tmp_written {
            continue;
        }
        assert_eq!(seq.scalars.get(name), Some(v), "scalar `{name}` diverged");
    }
}

/// Adversarial iteration orders: reversed, odds-then-evens, and a
/// middle-out interleave.
fn orders() -> Vec<Vec<i64>> {
    let natural: Vec<i64> = (0..TRIP).collect();
    let reversed: Vec<i64> = natural.iter().rev().copied().collect();
    let odds_evens: Vec<i64> = natural
        .iter()
        .filter(|i| *i % 2 == 1)
        .chain(natural.iter().filter(|i| *i % 2 == 0))
        .copied()
        .collect();
    let mut middle_out: Vec<i64> = Vec::new();
    let (mut lo, mut hi) = (0i64, TRIP - 1);
    while lo <= hi {
        middle_out.push(hi);
        if lo != hi {
            middle_out.push(lo);
        }
        lo += 1;
        hi -= 1;
    }
    vec![reversed, odds_evens, middle_out]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// EXEC SOUNDNESS: every parallel verdict executes bit-identically
    /// under the emitted plan, in every adversarial order.
    #[test]
    fn parallel_verdicts_execute_bit_identically(
        ops in proptest::collection::vec(arb_op(), 1..6)
    ) {
        let l = lower(&ops);
        let dv = analyze_loop_dataflow(&l, &Summaries::empty());
        if dv.verdict.parallel {
            let seq = run_sequential(&ops);
            for order in orders() {
                let par = run_parallel(&ops, &order);
                compare(&ops, &seq, &par);
            }
        }
    }

    /// MONOTONICITY: the dataflow pass never loses a loop the
    /// conservative pass already proved parallel.
    #[test]
    fn dataflow_pass_subsumes_conservative(
        ops in proptest::collection::vec(arb_op(), 1..6)
    ) {
        let l = lower(&ops);
        if analyze_loop(&l).parallel {
            let dv = analyze_loop_dataflow(&l, &Summaries::empty());
            prop_assert!(dv.verdict.parallel, "dataflow pass regressed: {dv:?}");
        }
    }

    /// HONESTY: a genuinely carried scalar is always rejected, and the
    /// residual reason is anchored at the carrying statement.
    #[test]
    fn carried_scalars_are_always_rejected(
        base in proptest::collection::vec(arb_op(), 0..4)
    ) {
        let mut ops = base;
        ops.push(Op::Carried);
        let l = lower(&ops);
        let dv = analyze_loop_dataflow(&l, &Summaries::empty());
        prop_assert!(!dv.verdict.parallel);
        prop_assert!(
            dv.verdict.reasons.iter().any(|r| r.to_string().contains("carried")),
            "{:?}", dv.verdict.reasons
        );
    }
}

/// The benchmark-shaped idioms, pinned (not property-generated): the
/// exact Program 1 shape — compaction over a count reduction — executes
/// bit-identically.
#[test]
fn program1_shaped_compaction_executes_bit_identically() {
    let ops = vec![
        Op::Compact { salt: 17, keep: 2 },
        Op::Reduce {
            slot: 0,
            op: ReduceOp::Sum,
            salt: 5,
        },
    ];
    let l = lower(&ops);
    let dv = analyze_loop_dataflow(&l, &Summaries::empty());
    assert!(dv.verdict.parallel, "{dv:?}");
    assert_eq!(dv.compactions, vec![("out".to_string(), "n".to_string())]);
    let seq = run_sequential(&ops);
    for order in orders() {
        compare(&ops, &seq, &run_parallel(&ops, &order));
    }
}

/// Privatized-temporary shape (Program 3's cleared obstacle, scalar
/// form): load-then-store through a temp.
#[test]
fn privatized_temp_executes_bit_identically() {
    let ops = vec![
        Op::Store {
            array: 0,
            scale: 1,
            offset: 0,
            salt: 31,
        },
        Op::Load {
            tmp: 0,
            array: 0,
            scale: 1,
            offset: 0,
        },
        Op::StoreTmp {
            tmp: 0,
            array: 1,
            scale: 1,
            offset: 0,
        },
    ];
    let l = lower(&ops);
    let dv = analyze_loop_dataflow(&l, &Summaries::empty());
    assert!(dv.verdict.parallel, "{dv:?}");
    assert!(dv.privatized_scalars.contains(&"t0".to_string()));
    let seq = run_sequential(&ops);
    for order in orders() {
        compare(&ops, &seq, &run_parallel(&ops, &order));
    }
}
