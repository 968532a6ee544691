//! The liveness the solver reports equals an independent fixpoint.
//!
//! The oracle shares no code with `autopar::dataflow`: it flattens the
//! loop nest itself, keeps its sets as `BTreeSet<String>`, and recomputes
//! `live_in = use ∪ (live_out − def)` for every node, round-robin, until
//! nothing changes. The least fixpoint of a monotone union problem is
//! unique, so the bitset worklist must land on exactly the same names at
//! every node — checked on random three-level loop nests and on the five
//! benchmark loops.

use autopar::dataflow::{solve, BitSet, Facts};
use autopar::{LoopNest, Node, Stmt};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Names = BTreeSet<String>;

/// The oracle's own CFG: per-node use/def sets and successor lists.
#[derive(Default)]
struct NaiveCfg {
    uses: Vec<Names>,
    defs: Vec<Names>,
    succs: Vec<BTreeSet<usize>>,
}

impl NaiveCfg {
    /// Statements in program order, a fall-through edge between
    /// neighbours, and a back edge from the last to the first statement
    /// of every loop (the analyzed one included).
    fn of(l: &LoopNest) -> NaiveCfg {
        let mut g = NaiveCfg::default();
        g.flatten(l);
        for v in 1..g.uses.len() {
            g.succs[v - 1].insert(v);
        }
        g
    }

    fn flatten(&mut self, l: &LoopNest) {
        let first = self.uses.len();
        for n in &l.body {
            match n {
                Node::Loop(inner) => self.flatten(inner),
                Node::Stmt(s) => {
                    let subscripts = s
                        .arrays
                        .iter()
                        .flat_map(|a| &a.indices)
                        .filter_map(|e| e.opaque_scalar().map(str::to_string));
                    self.uses
                        .push(s.reads.iter().cloned().chain(subscripts).collect());
                    self.defs.push(s.writes.iter().cloned().collect());
                    self.succs.push(BTreeSet::new());
                }
            }
        }
        let end = self.uses.len();
        if end > first {
            self.succs[end - 1].insert(first);
        }
    }

    /// Round-robin to the fixpoint; returns `(live_in, live_out)`.
    fn liveness(&self) -> (Vec<Names>, Vec<Names>) {
        let n = self.uses.len();
        let mut live_in = vec![Names::new(); n];
        let mut live_out = vec![Names::new(); n];
        loop {
            let mut changed = false;
            for v in 0..n {
                let out: Names = self.succs[v]
                    .iter()
                    .flat_map(|&s| live_in[s].iter().cloned())
                    .collect();
                let mut inn = self.uses[v].clone();
                inn.extend(out.difference(&self.defs[v]).cloned());
                changed |= inn != live_in[v] || out != live_out[v];
                live_in[v] = inn;
                live_out[v] = out;
            }
            if !changed {
                return (live_in, live_out);
            }
        }
    }
}

/// The solver's bitsets, decoded to names through its scalar universe.
fn names(facts: &Facts, sets: &[BitSet]) -> Vec<Names> {
    sets.iter()
        .map(|s| s.iter().map(|i| facts.cfg.scalars[i].clone()).collect())
        .collect()
}

fn check_against_oracle(l: &LoopNest, facts: &Facts) -> Result<(), String> {
    let (live_in, live_out) = NaiveCfg::of(l).liveness();
    if names(facts, &facts.live_in) != live_in {
        return Err(format!("live_in differs on {}", l.label));
    }
    if names(facts, &facts.live_out) != live_out {
        return Err(format!("live_out differs on {}", l.label));
    }
    // The one query the analysis makes.
    let entry = live_in.first().cloned().unwrap_or_default();
    for name in &facts.cfg.scalars {
        if facts.live_at_entry(name) != entry.contains(name) {
            return Err(format!("live_at_entry({name}) differs on {}", l.label));
        }
    }
    Ok(())
}

/// A small random loop nest: statements with reads/writes over a fixed
/// scalar pool, at up to three nesting levels.
fn arb_loop() -> impl Strategy<Value = LoopNest> {
    const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let stmt = (
        proptest::collection::vec(0usize..POOL.len(), 0..3),
        proptest::collection::vec(0usize..POOL.len(), 0..3),
    )
        .prop_map(|(reads, writes)| {
            let mut s = Stmt::new("gen");
            s.reads = reads.iter().map(|&i| POOL[i].to_string()).collect();
            s.writes = writes.iter().map(|&i| POOL[i].to_string()).collect();
            s
        });
    proptest::collection::vec((stmt, 0usize..3), 1..8).prop_map(|items| {
        // depth 0 statements go in the outer loop, 1 in a middle nest,
        // 2 in an inner nest — enough shape variety to exercise multiple
        // back edges.
        let mut outer = LoopNest::new("outer", "i");
        let mut mid = LoopNest::new("mid", "j");
        let mut inner = LoopNest::new("inner", "k");
        for (s, depth) in items {
            match depth {
                0 => outer = outer.stmt(s),
                1 => mid = mid.stmt(s),
                _ => inner = inner.stmt(s),
            }
        }
        if !inner.body.is_empty() {
            mid = mid.nest(inner);
        }
        if !mid.body.is_empty() {
            outer = outer.nest(mid);
        }
        outer
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solved_liveness_equals_the_naive_fixpoint(l in arb_loop()) {
        let checked = check_against_oracle(&l, &solve(&l));
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// The benchmark encodings themselves (the only loops with subscript
/// uses), as a fixed regression.
#[test]
fn benchmark_loops_match_the_naive_fixpoint() {
    for l in autopar::programs::benchmark_loops() {
        check_against_oracle(&l, &solve(&l)).unwrap_or_else(|e| panic!("{e}"));
    }
}
