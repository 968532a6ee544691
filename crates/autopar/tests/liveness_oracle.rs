//! The liveness the analysis reads equals an independent fixpoint.
//!
//! The analysis asks one question: is a scalar live at the loop body's
//! entry (`LoopNest::live_at_entry`, a first-touch scan in program
//! order)? The oracle shares no code with it: it flattens the loop nest
//! itself into a control-flow graph (fall-through edges and one back edge
//! per loop), keeps its sets as `BTreeSet<String>`, and recomputes
//! `live_in = use ∪ (live_out − def)` for every node, round-robin, until
//! nothing changes. Its entry node's set must hold exactly the names the
//! scan calls live — checked on random nests up to four levels deep and
//! on the five benchmark loops.

use autopar::{Expr, LoopNest, Node, Stmt};
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

    /// Round-robin to the fixpoint; returns `live_in` per node.
    fn liveness(&self) -> Vec<Names> {
        let n = self.uses.len();
        let mut live_in = vec![Names::new(); n];
        loop {
            let mut changed = false;
            for v in 0..n {
                let out: Names = self.succs[v]
                    .iter()
                    .flat_map(|&s| live_in[s].iter().cloned())
                    .collect();
                let mut inn = self.uses[v].clone();
                inn.extend(out.difference(&self.defs[v]).cloned());
                changed |= inn != live_in[v];
                live_in[v] = inn;
            }
            if !changed {
                return live_in;
            }
        }
    }
}

/// The scalar pool every generated statement draws from.
const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// The scan calls live exactly the names in the fixpoint's entry set.
/// Checked for every pool name, whether or not the loop touches it, and
/// every scalar the loop reads, writes or uses as a subscript.
fn check_against_oracle(l: &LoopNest) -> Result<(), String> {
    let g = NaiveCfg::of(l);
    let entry = g.liveness().first().cloned().unwrap_or_default();
    let touched = g.uses.iter().chain(&g.defs).flatten().cloned();
    let names: Names = POOL.iter().map(|n| n.to_string()).chain(touched).collect();
    for name in names {
        if l.live_at_entry(&name) != entry.contains(&name) {
            return Err(format!("live_at_entry({name}) differs on {}", l.label));
        }
    }
    Ok(())
}

/// A small random loop nest: statements with reads, writes and opaque
/// subscripts over [`POOL`], and nested loops placed before, between and
/// after them, up to three levels below the analyzed loop.
fn arb_loop() -> impl Strategy<Value = LoopNest> {
    fn name() -> impl Strategy<Value = String> {
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_string())
    }
    // One past the pool is free text: an opaque subscript that reads no
    // scalar.
    let subscript = (0usize..POOL.len() + 1, 0usize..2).prop_map(|(i, write)| {
        let text = POOL.get(i).copied().unwrap_or("x in region");
        (Expr::Opaque(text.to_string()), write == 1)
    });
    let stmt = (
        proptest::collection::vec(name(), 0..3),
        proptest::collection::vec(name(), 0..3),
        proptest::collection::vec(subscript, 0..2),
    )
        .prop_map(|(reads, writes, subscripts)| {
            let mut s = Stmt::new("gen");
            s.reads = reads;
            s.writes = writes;
            for (e, write) in subscripts {
                s = s.array("m", vec![e], write);
            }
            s
        });
    // Each event adds a statement to the innermost open loop (four in
    // six), opens a nested loop, or closes the innermost one.
    proptest::collection::vec((0usize..6, stmt), 1..12).prop_map(|events| {
        fn close(open: &mut Vec<LoopNest>) {
            let inner = open.pop().unwrap();
            open.last_mut().unwrap().body.push(Node::Loop(inner));
        }
        let mut open = vec![LoopNest::new("outer", "i")];
        for (kind, s) in events {
            match kind {
                4 if open.len() < 4 => open.push(LoopNest::new("nest", "j")),
                5 if open.len() > 1 => close(&mut open),
                _ => open.last_mut().unwrap().body.push(Node::Stmt(s)),
            }
        }
        while open.len() > 1 {
            close(&mut open);
        }
        open.pop().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scanned_liveness_equals_the_naive_fixpoint(l in arb_loop()) {
        let checked = check_against_oracle(&l);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// The benchmark encodings themselves, as a fixed regression.
#[test]
fn benchmark_loops_match_the_naive_fixpoint() {
    for l in autopar::programs::benchmark_loops() {
        check_against_oracle(&l).unwrap_or_else(|e| panic!("{e}"));
    }
}
