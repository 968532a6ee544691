//! The bitset dataflow engine: reaching definitions and liveness over the
//! loop-nest IR, solved by a worklist algorithm — sequentially, or in
//! parallel over the SCC DAG of the control-flow graph.
//!
//! # The lattice
//!
//! Both analyses run over a powerset lattice: reaching definitions over
//! the set of *definitions* (one per `(statement, written scalar)` pair),
//! liveness over the set of *scalars*. Sets are [`BitSet`]s, the join is
//! union, and the per-node transfer function is the classic
//! `out = gen ∪ (in − kill)`. Transfer functions are monotone and the
//! lattice has finite height (one bit per definition or scalar), so the
//! worklist iteration terminates at the unique **least fixpoint**.
//! Because the least fixpoint is unique and bitsets are canonical
//! (trailing bits always zero), *any* sound evaluation order produces
//! bit-identical results — the property the SCC-parallel solver's oracle
//! tests pin down.
//!
//! # SCC scheduling invariants
//!
//! The parallel solver decomposes the CFG with [`crate::scc::tarjan`] and
//! schedules the condensation by topological level
//! ([`crate::scc::SccDag::levels`]):
//!
//! 1. every cycle is inside one SCC, so the condensation is acyclic;
//! 2. levels are processed in ascending order with a barrier between
//!    levels, so when an SCC solves, every predecessor SCC's `out` sets
//!    are final;
//! 3. within a level, SCCs are mutually unreachable, so solving them
//!    concurrently (via [`sthreads::par_map`]) is race-free: each task
//!    reads only frozen predecessor state and writes only its own nodes;
//! 4. an SCC iterated to its local fixpoint with final predecessor inputs
//!    equals the restriction of the global least fixpoint to its nodes.
//!
//! Together these make the parallel solve **deterministic and
//! bit-identical** to the sequential worklist at any worker count — the
//! sequential solver is kept as the oracle (`tests/dataflow_oracle.rs`).
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
use std::collections::BTreeMap;

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

/// One definition: statement `node` writes scalar `scalar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// CFG node (flattened statement index) of the write.
    pub node: usize,
    /// Scalar id (index into [`Cfg::scalars`]).
    pub scalar: usize,
}

/// The flattened control-flow graph of one loop nest, with the gen/kill
/// sets both analyses consume.
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
    /// Definition universe, in (node, scalar) order.
    pub defs: Vec<Def>,
    /// Per-node reaching-defs gen sets (over defs).
    pub gen_rd: Vec<BitSet>,
    /// Per-node reaching-defs kill sets (over defs).
    pub kill_rd: Vec<BitSet>,
    /// Per-node liveness use sets (over scalars). Reads are taken to
    /// happen before writes within a statement, so `x = x + 1` uses `x`.
    pub use_lv: Vec<BitSet>,
    /// Per-node liveness def sets (over scalars).
    pub def_lv: Vec<BitSet>,
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

        // Definition universe.
        let mut defs: Vec<Def> = Vec::new();
        for (node, s) in stmts.iter().enumerate() {
            for w in &s.writes {
                defs.push(Def {
                    node,
                    scalar: scalar_id[w.as_str()],
                });
            }
        }

        // Gen/kill.
        let nd = defs.len();
        let ns = scalars.len();
        let mut gen_rd = vec![BitSet::new(nd); n];
        let mut kill_rd = vec![BitSet::new(nd); n];
        let mut use_lv = vec![BitSet::new(ns); n];
        let mut def_lv = vec![BitSet::new(ns); n];
        for (node, s) in stmts.iter().enumerate() {
            for (d, def) in defs.iter().enumerate() {
                let here = def.node == node;
                if here {
                    gen_rd[node].insert(d);
                }
                // A write to the same scalar elsewhere is killed here.
                if !here && s.writes.iter().any(|w| scalar_id[w.as_str()] == def.scalar) {
                    kill_rd[node].insert(d);
                }
            }
            for r in &s.reads {
                use_lv[node].insert(scalar_id[r.as_str()]);
            }
            for a in &s.arrays {
                for e in &a.indices {
                    if let Some(name) = e.opaque_scalar() {
                        use_lv[node].insert(scalar_id[name]);
                    }
                }
            }
            for w in &s.writes {
                def_lv[node].insert(scalar_id[w.as_str()]);
            }
        }

        Cfg {
            stmts,
            succs,
            preds,
            scalars,
            defs,
            gen_rd,
            kill_rd,
            use_lv,
            def_lv,
        }
    }

    /// Id of a scalar name, if it appears in the loop at all.
    pub fn scalar_id(&self, name: &str) -> Option<usize> {
        self.scalars.binary_search_by(|s| s.as_str().cmp(name)).ok()
    }

    /// Definition indices writing `scalar`.
    pub fn defs_of(&self, scalar: usize) -> impl Iterator<Item = usize> + '_ {
        self.defs
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.scalar == scalar)
            .map(|(i, _)| i)
    }
}

/// Solve a union/monotone dataflow problem `out = gen ∪ (in − kill)` with
/// `in = ∪ preds' out` over an arbitrary graph. Returns `(in, out)` per
/// node. With `n_workers <= 1` this is the sequential worklist oracle;
/// otherwise the SCC-DAG schedule described in the module docs runs the
/// solve level-parallel over [`sthreads::par_map`]. Both paths compute
/// the same unique least fixpoint, bit for bit.
pub fn solve_union_dataflow(
    succs: &[Vec<usize>],
    gen: &[BitSet],
    kill: &[BitSet],
    nbits: usize,
    n_workers: usize,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = succs.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, outs) in succs.iter().enumerate() {
        for &w in outs {
            preds[w].push(v);
        }
    }
    let mut in_sets = vec![BitSet::new(nbits); n];
    let mut out_sets = vec![BitSet::new(nbits); n];

    // Local fixpoint over `nodes`, reading frozen `out` values for
    // predecessors outside the set. `nodes` must be closed under cycles
    // (an SCC, or the whole graph).
    let solve_nodes = |nodes: &[usize], in_sets: &mut [BitSet], out_sets: &mut [BitSet]| {
        let mut queue: std::collections::VecDeque<usize> = nodes.iter().copied().collect();
        let mut queued = vec![false; n];
        for &v in nodes {
            queued[v] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v] = false;
            let mut new_in = std::mem::replace(&mut in_sets[v], BitSet::new(0));
            for &p in &preds[v] {
                new_in.union_with(&out_sets[p]);
            }
            in_sets[v] = new_in;
            if BitSet::transfer_into(&mut out_sets[v], &in_sets[v], &gen[v], &kill[v]) {
                for &s in &succs[v] {
                    // Only re-queue nodes we own; out-of-set successors
                    // belong to later levels and have not started.
                    if nodes.contains(&s) && !queued[s] {
                        queued[s] = true;
                        queue.push_back(s);
                    }
                }
            }
        }
    };

    if n_workers <= 1 {
        let all: Vec<usize> = (0..n).collect();
        solve_nodes(&all, &mut in_sets, &mut out_sets);
        return (in_sets, out_sets);
    }

    let dag = crate::scc::SccDag::build(succs);
    for level in dag.levels() {
        // Each task solves one SCC against the frozen global state and
        // returns its nodes' new sets; the merge after the barrier is the
        // only writer of the shared vectors.
        let solved: Vec<Vec<(usize, BitSet, BitSet)>> =
            sthreads::par_map(level.len(), n_workers, |k| {
                let nodes = &dag.comps[level[k]];
                let mut local_in: Vec<BitSet> = nodes.iter().map(|&v| in_sets[v].clone()).collect();
                let mut local_out: Vec<BitSet> =
                    nodes.iter().map(|&v| out_sets[v].clone()).collect();
                // Local fixpoint restricted to the SCC's nodes.
                let index_of = |v: usize| nodes.iter().position(|&x| x == v);
                let mut changed = true;
                while changed {
                    changed = false;
                    for (li, &v) in nodes.iter().enumerate() {
                        let mut new_in = BitSet::new(nbits);
                        for &p in &preds[v] {
                            match index_of(p) {
                                Some(lp) => new_in.union_with(&local_out[lp]),
                                None => new_in.union_with(&out_sets[p]),
                            };
                        }
                        local_in[li] = new_in;
                        changed |= BitSet::transfer_into(
                            &mut local_out[li],
                            &local_in[li],
                            &gen[v],
                            &kill[v],
                        );
                    }
                }
                nodes
                    .iter()
                    .enumerate()
                    .map(|(li, &v)| (v, local_in[li].clone(), local_out[li].clone()))
                    .collect()
            });
        for comp in solved {
            for (v, i, o) in comp {
                in_sets[v] = i;
                out_sets[v] = o;
            }
        }
    }
    (in_sets, out_sets)
}

/// The solved dataflow facts for one loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// The flattened CFG the facts are over.
    pub cfg: Cfg,
    /// Reaching definitions at node entry (over [`Cfg::defs`]).
    pub reach_in: Vec<BitSet>,
    /// Reaching definitions at node exit.
    pub reach_out: Vec<BitSet>,
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

impl PartialEq for Cfg {
    fn eq(&self, other: &Self) -> bool {
        // Facts comparison only needs the graphs and universes to agree;
        // statements are compared structurally.
        self.stmts == other.stmts
            && self.succs == other.succs
            && self.scalars == other.scalars
            && self.defs == other.defs
    }
}

/// Solve both analyses for a loop nest. `n_workers <= 1` runs the
/// sequential worklist; more workers run the SCC-DAG parallel schedule.
/// The results are bit-identical either way (see the module docs).
pub fn solve(l: &LoopNest, n_workers: usize) -> Facts {
    let cfg = Cfg::from_loop(l);
    let nd = cfg.defs.len();
    let ns = cfg.scalars.len();
    let (reach_in, reach_out) =
        solve_union_dataflow(&cfg.succs, &cfg.gen_rd, &cfg.kill_rd, nd, n_workers);
    // Liveness is the same union problem on the reversed graph with
    // use/def as gen/kill: live_out[v] = ∪ succ live_in, and
    // live_in = use ∪ (live_out − def). On the reversed graph the
    // engine's `in` is live_out and its `out` is live_in.
    let (live_out, live_in) =
        solve_union_dataflow(&cfg.preds, &cfg.use_lv, &cfg.def_lv, ns, n_workers);
    Facts {
        cfg,
        reach_in,
        reach_out,
        live_in,
        live_out,
    }
}

/// [`solve`] with the sequential worklist only — the oracle the parallel
/// schedule is tested against.
pub fn solve_sequential(l: &LoopNest) -> Facts {
    solve(l, 1)
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
    fn back_edge_carries_defs_and_liveness() {
        let facts = solve_sequential(&carried_loop());
        // x is live at entry (read in node 0, written only in node 1).
        assert!(facts.live_at_entry("x"));
        assert!(facts.live_at_entry("y"));
        // The def of x in node 1 reaches node 0 around the back edge.
        let x = facts.cfg.scalar_id("x").unwrap();
        let def_x: Vec<usize> = facts.cfg.defs_of(x).collect();
        assert_eq!(def_x.len(), 1);
        assert!(facts.reach_in[0].contains(def_x[0]));
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
        let facts = solve_sequential(&l);
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
        let facts = solve_sequential(&l);
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
        let facts = solve_sequential(&l);
        assert!(facts.cfg.scalar_id("x in region").is_none());
    }

    #[test]
    fn parallel_solve_matches_sequential_on_nested_loops() {
        let l = LoopNest::new("outer", "i")
            .stmt(Stmt::new("s0").writes(&["a"]).reads(&["c"]))
            .nest(
                LoopNest::new("mid", "j")
                    .stmt(Stmt::new("s1").writes(&["b"]).reads(&["a"]))
                    .nest(
                        LoopNest::new("inner", "k")
                            .stmt(Stmt::new("s2").writes(&["c"]).reads(&["b", "c"])),
                    ),
            )
            .stmt(Stmt::new("s3").writes(&["d"]).reads(&["c", "d"]));
        let seq = solve_sequential(&l);
        for workers in [2, 4, 8] {
            let par = solve(&l, workers);
            assert_eq!(seq, par, "{workers} workers");
        }
    }

    #[test]
    fn empty_loop_solves() {
        let facts = solve_sequential(&LoopNest::new("empty", "i"));
        assert!(facts.cfg.stmts.is_empty());
        assert!(!facts.live_at_entry("anything"));
    }
}
