//! Property tests for the SMP simulator: the set-associative LRU cache is
//! compared against an independently implemented reference model (an
//! explicit recency list per set), and the bus/trace invariants are
//! checked on random inputs.

use proptest::prelude::*;
use smp_sim::{AccessResult, Bus, Cache, CacheConfig, Op, TracePattern};
use std::collections::VecDeque;

/// Reference cache: per set, a recency-ordered list of (tag, owned);
/// front = most recent. Structurally different from the production
/// implementation (which uses timestamps over a flat array).
struct RefCache {
    sets: Vec<VecDeque<(usize, bool)>>,
    line_words: usize,
    ways: usize,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: (0..cfg.sets()).map(|_| VecDeque::new()).collect(),
            line_words: cfg.line_words,
            ways: cfg.ways,
        }
    }

    fn access(&mut self, addr: usize, write: bool) -> AccessResult {
        let line = addr / self.line_words;
        let n_sets = self.sets.len();
        let set = &mut self.sets[line % n_sets];
        if let Some(pos) = set.iter().position(|&(t, _)| t == line) {
            let (t, owned) = set.remove(pos).unwrap();
            if write && !owned {
                set.push_front((t, true));
                return AccessResult::Upgrade;
            }
            set.push_front((t, owned));
            return AccessResult::Hit;
        }
        if set.len() == self.ways {
            set.pop_back();
        }
        set.push_front((line, write));
        AccessResult::Miss
    }

    fn invalidate(&mut self, addr: usize) -> bool {
        let line = addr / self.line_words;
        let n_sets = self.sets.len();
        let set = &mut self.sets[line % n_sets];
        if let Some(pos) = set.iter().position(|&(t, _)| t == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Clone)]
enum Action {
    Access { addr: usize, write: bool },
    Invalidate { addr: usize },
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            8 => (0usize..512, any::<bool>())
                .prop_map(|(addr, write)| Action::Access { addr, write }),
            1 => (0usize..512).prop_map(|addr| Action::Invalidate { addr }),
        ],
        1..400,
    )
}

proptest! {
    /// The production cache agrees with the reference model on every
    /// access classification, for random geometries and action streams.
    #[test]
    fn cache_matches_reference_model(
        actions in arb_actions(),
        line_pow in 0u32..3,
        ways in 1usize..5,
        sets_pow in 0u32..4,
    ) {
        let line_words = 1usize << line_pow;
        let sets = 1usize << sets_pow;
        let cfg = CacheConfig { words: line_words * ways * sets, line_words, ways };
        let mut real = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, a) in actions.iter().enumerate() {
            match *a {
                Action::Access { addr, write } => {
                    let r = real.access(addr, write);
                    let e = reference.access(addr, write);
                    prop_assert_eq!(r, e, "step {}: access {:?}", i, a);
                }
                Action::Invalidate { addr } => {
                    let r = real.invalidate(addr);
                    let e = reference.invalidate(addr);
                    prop_assert_eq!(r, e, "step {}: invalidate {:?}", i, a);
                }
            }
        }
    }

    /// Bus completions are monotone and conserve service time.
    #[test]
    fn bus_conserves_service_time(
        arrivals in proptest::collection::vec(0u64..10_000, 1..100),
        per in 1u64..50,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut bus = Bus::new(per);
        let mut last_done = 0u64;
        for &t in &sorted {
            let done = bus.transact(t);
            prop_assert!(done >= t + per);
            prop_assert!(done >= last_done + per, "bus served two at once");
            last_done = done;
        }
        prop_assert_eq!(bus.transactions(), sorted.len() as u64);
        // Total busy time == n * per; completion of the last transaction
        // is at least first arrival + n*per when all arrive together.
        let n = sorted.len() as u64;
        prop_assert!(last_done >= sorted[0] + n * per || sorted.len() == 1);
    }

    /// Trace generators emit exactly the advertised number of memory ops,
    /// all within the stated address range.
    #[test]
    fn trace_pattern_contract(
        base in 0usize..10_000,
        words in 1usize..500,
        stride in 1usize..8,
        compute in 0u64..4,
        write in any::<bool>(),
    ) {
        let p = TracePattern::Stream { base, words, stride, compute_per_access: compute, write };
        let trace = p.generate();
        let mems: Vec<&Op> = trace.iter().filter(|o| matches!(o, Op::Mem { .. })).collect();
        prop_assert_eq!(mems.len(), words);
        for op in mems {
            if let Op::Mem { addr, write: w } = op {
                prop_assert!(*addr >= base && *addr < base + words * stride);
                prop_assert_eq!(*w, write);
            }
        }
    }
}
