//! The bitset dataflow engine: liveness over the loop-nest IR, solved by
//! one sequential worklist.
//!
//! # The lattice
//!
//! Liveness runs over the powerset lattice of the loop's *scalars*. Sets
//! are [`BitSet`]s, the join is union, and the per-node transfer function
//! is the classic `live_in = use ∪ (live_out − def)` with
//! `live_out = ∪ successors' live_in`. The transfer functions are
//! monotone and the lattice has finite height (one bit per scalar), so
//! the worklist terminates at the unique **least fixpoint** — whatever
//! order nodes are visited in. `tests/liveness_oracle.rs` checks it
//! against a naive round-robin fixpoint that shares no code with this
//! module.
//!
//! Liveness is the only analysis here because it is the only fact the
//! recognizers in [`crate::reduction`] read ([`Facts::live_at_entry`]).
//! The benchmark loops flatten to one or two nodes over one to three
//! scalars; there is nothing to schedule.
//!
//! # The control-flow graph
//!
//! A [`LoopNest`] flattens to one CFG node per statement in program
//! order, with fall-through edges between consecutive statements, a back
//! edge for the outer loop, and one back edge per nested loop span. The
//! back edges are what make iteration-carried facts visible: a scalar
//! read at the top of the body and written at the bottom is live around
//! the back edge, which is exactly the "carried dependence" the
//! conservative pass reports — and the privatization analysis clears when
//! the back edge carries nothing.

use crate::ir::{LoopNest, Node, Stmt};
use std::collections::{BTreeMap, VecDeque};

/// A fixed-width bitset over `u64` words. Canonical representation:
/// word count fixed at construction, unused high bits always zero, so
/// `==` is exact set equality and the solver's results are comparable
/// bit-for-bit across evaluation orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// The empty set over a universe of `nbits` elements.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Number of elements the universe holds.
    pub fn universe(&self) -> usize {
        self.nbits
    }

    /// Insert `i`; returns whether the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let changed = self.words[w] & b == 0;
        self.words[w] |= b;
        changed
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self ∪= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Whether no element is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set elements, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }

    /// `dst = gen ∪ (src − kill)`, the dataflow transfer function;
    /// returns whether `dst` changed.
    pub fn transfer_into(dst: &mut BitSet, src: &BitSet, gen: &BitSet, kill: &BitSet) -> bool {
        let mut changed = false;
        for i in 0..dst.words.len() {
            let next = gen.words[i] | (src.words[i] & !kill.words[i]);
            changed |= next != dst.words[i];
            dst.words[i] = next;
        }
        changed
    }
}

/// The flattened control-flow graph of one loop nest, with the use/def
/// sets liveness consumes.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Flattened statements, program order.
    pub stmts: Vec<Stmt>,
    /// Successor lists (fall-through plus loop back edges).
    pub succs: Vec<Vec<usize>>,
    /// Predecessor lists (derived from [`Cfg::succs`]).
    pub preds: Vec<Vec<usize>>,
    /// Scalar universe: every name read, written, or used as an
    /// identifier-shaped opaque subscript, sorted.
    pub scalars: Vec<String>,
    /// Per-node use sets (over scalars). Reads are taken to happen
    /// before writes within a statement, so `x = x + 1` uses `x`.
    pub uses: Vec<BitSet>,
    /// Per-node def sets (over scalars).
    pub defs: Vec<BitSet>,
}

impl Cfg {
    /// Flatten a loop nest into its CFG.
    pub fn from_loop(l: &LoopNest) -> Cfg {
        // Flatten statements and record (first, last) node spans for the
        // outer loop and every nested loop, to place back edges.
        let mut stmts: Vec<Stmt> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        fn walk(nodes: &[Node], stmts: &mut Vec<Stmt>, spans: &mut Vec<(usize, usize)>) {
            for n in nodes {
                match n {
                    Node::Stmt(s) => stmts.push(s.clone()),
                    Node::Loop(inner) => {
                        let first = stmts.len();
                        walk(&inner.body, stmts, spans);
                        if stmts.len() > first {
                            spans.push((first, stmts.len() - 1));
                        }
                    }
                }
            }
        }
        let first = 0usize;
        walk(&l.body, &mut stmts, &mut spans);
        if !stmts.is_empty() {
            spans.push((first, stmts.len() - 1)); // the analyzed loop itself
        }
        let n = stmts.len();

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, outs) in succs.iter_mut().enumerate().take(n.saturating_sub(1)) {
            outs.push(i + 1);
        }
        for &(lo, hi) in &spans {
            if !succs[hi].contains(&lo) {
                succs[hi].push(lo);
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, outs) in succs.iter().enumerate() {
            for &w in outs {
                preds[w].push(v);
            }
        }

        // Scalar universe.
        let mut scalar_id: BTreeMap<String, usize> = BTreeMap::new();
        for s in &stmts {
            for name in s.reads.iter().chain(&s.writes) {
                let next = scalar_id.len();
                scalar_id.entry(name.clone()).or_insert(next);
            }
            for a in &s.arrays {
                for e in &a.indices {
                    if let Some(name) = e.opaque_scalar() {
                        let next = scalar_id.len();
                        scalar_id.entry(name.to_string()).or_insert(next);
                    }
                }
            }
        }
        // BTreeMap iteration is sorted; re-number densely in sorted order
        // so scalar ids are independent of statement order.
        let scalars: Vec<String> = scalar_id.keys().cloned().collect();
        let scalar_id: BTreeMap<&str, usize> = scalars
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();

        // Use/def.
        let ns = scalars.len();
        let mut uses = vec![BitSet::new(ns); n];
        let mut defs = vec![BitSet::new(ns); n];
        for (node, s) in stmts.iter().enumerate() {
            for r in &s.reads {
                uses[node].insert(scalar_id[r.as_str()]);
            }
            for a in &s.arrays {
                for e in &a.indices {
                    if let Some(name) = e.opaque_scalar() {
                        uses[node].insert(scalar_id[name]);
                    }
                }
            }
            for w in &s.writes {
                defs[node].insert(scalar_id[w.as_str()]);
            }
        }

        Cfg {
            stmts,
            succs,
            preds,
            scalars,
            uses,
            defs,
        }
    }

    /// Id of a scalar name, if it appears in the loop at all.
    pub fn scalar_id(&self, name: &str) -> Option<usize> {
        self.scalars.binary_search_by(|s| s.as_str().cmp(name)).ok()
    }
}

/// The solved liveness facts for one loop nest.
#[derive(Debug, Clone)]
pub struct Facts {
    /// The flattened CFG the facts are over.
    pub cfg: Cfg,
    /// Live scalars at node entry (over [`Cfg::scalars`]).
    pub live_in: Vec<BitSet>,
    /// Live scalars at node exit.
    pub live_out: Vec<BitSet>,
}

impl Facts {
    /// Whether scalar `name` is live at the loop-body entry — i.e. some
    /// path (necessarily around the back edge, for body-defined scalars)
    /// reads it before any write. A written scalar that is *not* live at
    /// entry is defined before used in every iteration: privatizable.
    pub fn live_at_entry(&self, name: &str) -> bool {
        match (self.cfg.scalar_id(name), self.live_in.first()) {
            (Some(id), Some(set)) => set.contains(id),
            _ => false,
        }
    }
}

/// Solve liveness for a loop nest: a backward worklist, seeded in reverse
/// program order, that re-queues a node's predecessors whenever its
/// `live_in` grows.
pub fn solve(l: &LoopNest) -> Facts {
    let cfg = Cfg::from_loop(l);
    let n = cfg.stmts.len();
    let ns = cfg.scalars.len();
    let mut live_in = vec![BitSet::new(ns); n];
    let mut live_out = vec![BitSet::new(ns); n];

    let mut queue: VecDeque<usize> = (0..n).rev().collect();
    let mut queued = vec![true; n];
    while let Some(v) = queue.pop_front() {
        queued[v] = false;
        for &s in &cfg.succs[v] {
            live_out[v].union_with(&live_in[s]);
        }
        if BitSet::transfer_into(&mut live_in[v], &live_out[v], &cfg.uses[v], &cfg.defs[v]) {
            for &p in &cfg.preds[v] {
                if !queued[p] {
                    queued[p] = true;
                    queue.push_back(p);
                }
            }
        }
    }
    Facts {
        cfg,
        live_in,
        live_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, LoopNest, Stmt};

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(0));
        assert!(a.contains(129));
        assert!(!a.contains(64));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 129]);

        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 3);
    }

    fn carried_loop() -> LoopNest {
        // for i { y = y + x; x = a[i] } — y's use sees last iteration's
        // def of x around the back edge.
        LoopNest::new("for i", "i")
            .stmt(Stmt::new("y = y + x").reads(&["y", "x"]).writes(&["y"]))
            .stmt(
                Stmt::new("x = a[i]")
                    .writes(&["x"])
                    .array("a", vec![Expr::var("i")], false),
            )
    }

    #[test]
    fn back_edge_carries_liveness() {
        let facts = solve(&carried_loop());
        // x is live at entry (read in node 0, written only in node 1).
        assert!(facts.live_at_entry("x"));
        assert!(facts.live_at_entry("y"));
    }

    #[test]
    fn def_before_use_is_not_live_at_entry() {
        // for i { t = a[i]; b[i] = t } — t defined before every use.
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
        let facts = solve(&l);
        assert!(!facts.live_at_entry("t"));
    }

    #[test]
    fn opaque_subscripts_are_uses() {
        // for i: out[k] = i — the subscript reads k.
        let l = LoopNest::new("for i", "i").stmt(Stmt::new("out[k] = i").array(
            "out",
            vec![Expr::Opaque("k".into())],
            true,
        ));
        let facts = solve(&l);
        assert!(facts.cfg.scalar_id("k").is_some());
        assert!(facts.live_at_entry("k"));
    }

    #[test]
    fn non_identifier_opaques_are_not_scalars() {
        let l = LoopNest::new("for t", "t").stmt(Stmt::new("m[region] = ...").array(
            "m",
            vec![Expr::Opaque("x in region".into())],
            true,
        ));
        let facts = solve(&l);
        assert!(facts.cfg.scalar_id("x in region").is_none());
    }

    #[test]
    fn empty_loop_solves() {
        let facts = solve(&LoopNest::new("empty", "i"));
        assert!(facts.cfg.stmts.is_empty());
        assert!(!facts.live_at_entry("anything"));
    }
}
