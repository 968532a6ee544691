//! Differential test of `Memory`'s data operations against a flat model:
//! one `u64` and one full bit per word, every word born full and zero.
//!
//! `interp::run_reference` runs on `Memory` too, so `reference.rs` cannot
//! see a fault in how `Memory` stores its words; this model can. Random
//! sequences of every data operation and `set_empty` run on both, every
//! return value is compared, and then every word's value and full bit.
//!
//! Each sequence runs on a memory of 8,192 words, a whole number of pages
//! for any power-of-two page size up to 8,192 words, or of 8,229, whose
//! last page is partial for any from 64. Addresses are drawn mostly from
//! word 0, each multiple of 256 and its neighbours, and the last two
//! words, so page boundaries are hit whatever the page size; a sequence
//! touches a few of the memory's pages, and the final sweep reads the
//! rest, which were never written.

use mta_sim::Memory;
use proptest::prelude::*;

const SIZES: [usize; 2] = [8 * 1024, 8 * 1024 + 37];

/// The flat model: the specification `Memory` must meet.
struct Model {
    data: Vec<u64>,
    full: Vec<bool>,
}

impl Model {
    fn new(words: usize) -> Self {
        Self {
            data: vec![0; words],
            full: vec![true; words],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Load(usize),
    LoadF64(usize),
    Store(usize, u64),
    SetEmpty(usize),
    TryTake(usize),
    TryPutSync(usize, u64),
    TryReadFf(usize),
    Put(usize, u64),
    TryFetchAdd(usize, u64),
    Check(usize),
}

/// Run `op` on both and compare what each returns.
fn apply(op: Op, m: &mut Memory, model: &mut Model) -> Result<(), TestCaseError> {
    let Model { data, full } = model;
    match op {
        Op::Load(a) => prop_assert_eq!(m.load(a), data[a], "{:?}", op),
        Op::LoadF64(a) => prop_assert_eq!(m.load_f64(a).to_bits(), data[a], "{:?}", op),
        Op::Store(a, v) => {
            m.store(a, v);
            data[a] = v;
        }
        Op::SetEmpty(a) => {
            m.set_empty(a);
            full[a] = false;
        }
        Op::TryTake(a) => {
            let want = full[a].then_some(data[a]);
            full[a] = false;
            prop_assert_eq!(m.try_take(a), want, "{:?}", op);
        }
        Op::TryPutSync(a, v) => {
            let want = !full[a];
            if want {
                data[a] = v;
                full[a] = true;
            }
            prop_assert_eq!(m.try_put_sync(a, v), want, "{:?}", op);
        }
        Op::TryReadFf(a) => {
            prop_assert_eq!(m.try_read_ff(a), full[a].then_some(data[a]), "{:?}", op)
        }
        Op::Put(a, v) => {
            m.put(a, v);
            data[a] = v;
            full[a] = true;
        }
        Op::TryFetchAdd(a, d) => {
            let want = full[a].then_some(data[a]);
            if full[a] {
                data[a] = data[a].wrapping_add(d);
            }
            prop_assert_eq!(m.try_fetch_add(a, d), want, "{:?}", op);
        }
        Op::Check(a) => prop_assert_eq!(m.check(a).is_ok(), a < data.len(), "{:?}", op),
    }
    Ok(())
}

/// Word 0, every multiple of 256 with its two neighbours, and the last
/// two words.
fn boundary_addrs(words: usize) -> Vec<usize> {
    let mut v = vec![0, words - 2, words - 1];
    for k in (256..words - 1).step_by(256) {
        v.extend([k - 1, k, k + 1]);
    }
    v
}

fn arb_addr(words: usize) -> impl Strategy<Value = usize> {
    let boundary = boundary_addrs(words);
    prop_oneof![
        4 => (0..boundary.len()).prop_map(move |i| boundary[i]),
        1 => 0..words,
    ]
}

fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(1), Just(u64::MAX), any::<u64>()]
}

fn arb_op(words: usize) -> impl Strategy<Value = Op> {
    let a = || arb_addr(words);
    prop_oneof![
        a().prop_map(Op::Load),
        a().prop_map(Op::LoadF64),
        (a(), arb_value()).prop_map(|(a, v)| Op::Store(a, v)),
        a().prop_map(Op::SetEmpty),
        a().prop_map(Op::TryTake),
        (a(), arb_value()).prop_map(|(a, v)| Op::TryPutSync(a, v)),
        a().prop_map(Op::TryReadFf),
        (a(), arb_value()).prop_map(|(a, v)| Op::Put(a, v)),
        (a(), arb_value()).prop_map(|(a, d)| Op::TryFetchAdd(a, d)),
        prop_oneof![a(), words..words + 2048, Just(usize::MAX)].prop_map(Op::Check),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every return value, then every word's value and full bit, equal
    /// the flat model's.
    #[test]
    fn memory_matches_the_flat_model(
        (words, ops) in (0..SIZES.len()).prop_flat_map(|i| {
            let words = SIZES[i];
            proptest::collection::vec(arb_op(words), 0..96).prop_map(move |ops| (words, ops))
        })
    ) {
        let mut m = Memory::new(words, 64, 1);
        let mut model = Model::new(words);
        for &op in &ops {
            apply(op, &mut m, &mut model)?;
        }
        prop_assert_eq!(m.len(), words);
        for a in 0..words {
            prop_assert_eq!(m.load(a), model.data[a], "value of word {}", a);
            prop_assert_eq!(m.try_read_ff(a).is_some(), model.full[a], "full bit of word {}", a);
        }
    }
}
