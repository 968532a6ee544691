//! A Tera MTA processor: 128 hardware stream contexts, one instruction
//! issued per cycle from whichever stream is ready.
//!
//! The processor keeps a FIFO ready queue (streams that may issue now) and
//! a calendar (streams whose current instruction completes at a known
//! future cycle): a timing wheel that hands them to the ready queue in
//! `(cycle, slot)` order at a constant cost per issue. Switching between
//! ready streams costs nothing — that is the one-cycle context switch of
//! the architecture. A stream that issues re-enters the calendar with its
//! completion time; a stream whose synchronized memory operation blocks is
//! *parked* by the machine on the word's waiter list and re-enters through
//! [`Processor::make_ready_at`].

use crate::ir::{Reg, NUM_REGS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One hardware stream: a register set and a program counter.
#[derive(Debug, Clone)]
pub struct Stream {
    /// General-purpose registers; `regs[0]` is always zero.
    pub regs: [u64; NUM_REGS],
    /// Index of the next instruction to issue.
    pub pc: usize,
    /// Set when a full/empty transition wakes this stream; cleared when
    /// its retried instruction executes. A park with the flag still set is
    /// a *repark*: the stream lost the race for the word to another
    /// consumer.
    pub was_woken: bool,
}

impl Stream {
    /// A fresh stream starting at `pc` with `r1 = arg`, other registers 0.
    pub fn new(pc: usize, arg: u64) -> Self {
        let mut regs = [0u64; NUM_REGS];
        regs[1] = arg;
        Self {
            regs,
            pc,
            was_woken: false,
        }
    }

    /// Read a register (`r0` reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    /// Write a register; writes to `r0` are discarded.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Read a register as f64.
    #[inline]
    pub fn reg_f(&self, r: Reg) -> f64 {
        f64::from_bits(self.regs[r as usize])
    }

    /// Write a register as f64.
    #[inline]
    pub fn set_reg_f(&mut self, r: Reg, v: f64) {
        self.set_reg(r, v.to_bits());
    }
}

/// Cycles the calendar's wheel spans. Not a knob: `tera()`'s latencies are
/// 21 / 23 / 70 / 75 cycles, so only hot-bank queues and software spawns
/// ever complete further out.
const WHEEL: u64 = 256;
/// Ends a bucket's chain; above every slot index.
const NIL: usize = usize::MAX;

/// When each scheduled slot becomes issueable: a timing wheel with one
/// bucket per cycle of `cursor + 1 ..= cursor + WHEEL`. Slots come out in
/// `(cycle, slot)` order — a bucket holds one cycle, and its chain through
/// `next` is kept in ascending slot order — at O(1) a push and a drain,
/// which takes the exact `earliest` cycle's bucket, then finds the next.
#[derive(Debug)]
struct Calendar {
    /// The last cycle drained.
    cursor: u64,
    /// Earliest cycle pending, on the wheel or the heap; `u64::MAX` if none.
    earliest: u64,
    /// First slot of the bucket for `cycle % WHEEL`, or `NIL`.
    head: [usize; WHEEL as usize],
    /// The slot after this one in its bucket. A slot has at most one entry.
    next: Vec<usize>,
    /// One bit per non-empty bucket.
    occupied: [u64; 4],
    /// Pushed for a cycle outside the wheel: already due (a zero latency,
    /// a spawn between runs), or beyond it and linked in by a drain near it.
    outside: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Calendar {
    fn new(n_slots: usize) -> Self {
        Self {
            cursor: 0,
            earliest: u64::MAX,
            head: [NIL; WHEEL as usize],
            next: vec![NIL; n_slots],
            occupied: [0; 4],
            outside: BinaryHeap::new(),
        }
    }

    /// Schedule `slot`, which has no entry, for cycle `t`.
    fn push(&mut self, t: u64, slot: usize) {
        self.earliest = self.earliest.min(t);
        if t > self.cursor && t - self.cursor <= WHEEL {
            self.link(t, slot);
        } else {
            self.outside.push(Reverse((t, slot)));
        }
    }

    /// Chain `slot` into the bucket of `t`, a cycle the wheel spans.
    fn link(&mut self, t: u64, slot: usize) {
        let b = (t % WHEEL) as usize;
        let (mut prev, mut cur) = (NIL, self.head[b]);
        while cur < slot {
            (prev, cur) = (cur, self.next[cur]);
        }
        self.next[slot] = cur;
        match prev {
            NIL => self.head[b] = slot,
            p => self.next[p] = slot,
        }
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// The cycle of the first non-empty bucket after `cursor`.
    fn wheel_head(&self) -> Option<u64> {
        let start = (self.cursor + 1) % WHEEL;
        // From `start`'s bit round the four words, back to the bits below it.
        (0..=4).find_map(|i| {
            let mask = match i {
                0 => !0 << (start % 64),
                4 => !(!0 << (start % 64)),
                _ => !0,
            };
            let word = (start / 64 + i) % 4;
            let bits = self.occupied[word as usize] & mask;
            let b = word * 64 + u64::from(bits.trailing_zeros());
            (bits != 0).then(|| self.cursor + 1 + (b + WHEEL - start) % WHEEL)
        })
    }

    /// The earliest cycle a slot is pending for.
    fn next_time(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// Append every slot due at or before `now` to `ready`, in `(cycle,
    /// slot)` order. A `now` before the last call's is taken as that.
    #[inline]
    fn drain_due(&mut self, now: u64, ready: &mut VecDeque<usize>) {
        let now = now.max(self.cursor);
        while self.earliest <= now {
            let t = self.earliest;
            match self.outside.peek() {
                // Pushed already due: off the heap, before the wheel.
                Some(&Reverse((_, slot))) if t <= self.cursor => {
                    self.outside.pop();
                    ready.push_back(slot);
                }
                // Nothing is pending before `t`: link in what the heap holds
                // for `t .. t + WHEEL`, then drain `t`'s bucket.
                _ => {
                    while let Some(&Reverse((u, slot))) = self.outside.peek() {
                        if u >= t + WHEEL {
                            break;
                        }
                        self.outside.pop();
                        self.link(u, slot);
                    }
                    let b = (t % WHEEL) as usize;
                    self.occupied[b / 64] &= !(1 << (b % 64));
                    let mut slot = std::mem::replace(&mut self.head[b], NIL);
                    while slot != NIL {
                        ready.push_back(slot);
                        slot = self.next[slot];
                    }
                    self.cursor = t;
                }
            }
            let far = self.outside.peek().map_or(u64::MAX, |&Reverse((u, _))| u);
            self.earliest = self.wheel_head().map_or(far, |w| w.min(far));
        }
        self.cursor = now;
    }
}

/// Scheduling state of a stream slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// In the ready queue or the calendar.
    Scheduled,
    /// Parked on a full/empty waiter list; the machine will re-ready it.
    Parked,
}

/// A processor with a fixed number of hardware stream contexts.
///
/// A `Scheduled` slot has exactly one entry, in `pending` or in `ready`
/// (none from [`Processor::next_to_issue`] handing it out until the machine
/// reschedules, parks or removes it); `Parked` and `Free` slots have none.
#[derive(Debug)]
pub struct Processor {
    slots: Vec<Option<Stream>>,
    state: Vec<SlotState>,
    ready: VecDeque<usize>,
    pending: Calendar,
    /// Instructions issued so far.
    pub issued: u64,
    /// Instructions issued per hardware stream slot.
    pub issued_per_slot: Vec<u64>,
    /// Number of live (occupied) stream contexts.
    pub live: usize,
    /// High-water mark of simultaneously live streams.
    pub peak_live: usize,
}

impl Processor {
    /// A processor with `n_streams` hardware contexts.
    pub fn new(n_streams: usize) -> Self {
        assert!(n_streams > 0);
        Self {
            slots: (0..n_streams).map(|_| None).collect(),
            state: vec![SlotState::Free; n_streams],
            ready: VecDeque::new(),
            pending: Calendar::new(n_streams),
            issued: 0,
            issued_per_slot: vec![0; n_streams],
            live: 0,
            peak_live: 0,
        }
    }

    /// Account one issued instruction to `slot`.
    pub fn record_issue(&mut self, slot: usize) {
        self.issued += 1;
        self.issued_per_slot[slot] += 1;
    }

    /// Whether a free hardware context exists.
    pub fn has_free_slot(&self) -> bool {
        self.live < self.slots.len()
    }

    /// Install a new stream, ready to issue at `ready_at`. Returns the slot
    /// index. Panics if no context is free (callers must check).
    pub fn install(&mut self, stream: Stream, ready_at: u64) -> usize {
        let slot = self
            .state
            .iter()
            .position(|&s| s == SlotState::Free)
            .expect("install: no free stream context");
        self.slots[slot] = Some(stream);
        self.state[slot] = SlotState::Scheduled;
        self.pending.push(ready_at, slot);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        slot
    }

    /// Remove the stream in `slot` (it halted). Frees the context.
    pub fn remove(&mut self, slot: usize) {
        assert!(self.slots[slot].is_some(), "remove: slot {slot} is empty");
        self.slots[slot] = None;
        self.state[slot] = SlotState::Free;
        self.live -= 1;
    }

    /// Borrow the stream in `slot`.
    pub fn stream(&self, slot: usize) -> &Stream {
        self.slots[slot].as_ref().expect("empty slot")
    }

    /// Mutably borrow the stream in `slot`.
    pub fn stream_mut(&mut self, slot: usize) -> &mut Stream {
        self.slots[slot].as_mut().expect("empty slot")
    }

    /// Mark `slot` parked (blocked on a full/empty bit). It will not issue
    /// until [`Processor::make_ready_at`] is called for it.
    pub fn park(&mut self, slot: usize) {
        self.state[slot] = SlotState::Parked;
    }

    /// Reschedule a stream (parked or just-issued) to become issueable at
    /// `at`.
    pub fn make_ready_at(&mut self, slot: usize, at: u64) {
        self.state[slot] = SlotState::Scheduled;
        self.pending.push(at, slot);
    }

    /// Move every pending stream whose time has come into the ready queue.
    fn promote(&mut self, now: u64) {
        let was = self.ready.len();
        self.pending.drain_due(now, &mut self.ready);
        debug_assert!(
            (self.ready.range(was..))
                .all(|&s| self.state[s] == SlotState::Scheduled && self.slots[s].is_some()),
            "a pending entry for a slot that is not scheduled"
        );
    }

    /// Pick the stream to issue this cycle, if any (round-robin FIFO over
    /// ready streams).
    pub fn next_to_issue(&mut self, now: u64) -> Option<usize> {
        self.promote(now);
        self.ready.pop_front()
    }

    /// Whether a stream is in the ready queue, so that it may issue now.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// The earliest cycle from `now` on at which this processor could
    /// issue, given nothing external changes: `now` if a stream is ready
    /// or due, else the calendar's earliest; `None` if it is fully idle
    /// (only parked or free slots). Promotes nothing, so what is due at a
    /// cycle is sorted into the ready queue once, by `next_to_issue`.
    pub fn next_event(&mut self, now: u64) -> Option<u64> {
        if self.has_ready() {
            return Some(now);
        }
        self.pending.next_time().map(|t| t.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn r0_is_hardwired_to_zero() {
        let mut s = Stream::new(0, 5);
        assert_eq!(s.reg(1), 5);
        s.set_reg(0, 99);
        assert_eq!(s.reg(0), 0);
    }

    #[test]
    fn f64_register_round_trip() {
        let mut s = Stream::new(0, 0);
        s.set_reg_f(2, 1.25);
        assert_eq!(s.reg_f(2), 1.25);
    }

    #[test]
    fn install_and_issue_in_ready_order() {
        let mut p = Processor::new(4);
        let a = p.install(Stream::new(0, 0), 0);
        let b = p.install(Stream::new(0, 0), 0);
        assert_eq!(p.live, 2);
        assert_eq!(p.next_to_issue(0), Some(a));
        assert_eq!(p.next_to_issue(0), Some(b));
        assert_eq!(p.next_to_issue(0), None);
    }

    #[test]
    fn pending_streams_become_ready_at_their_time() {
        let mut p = Processor::new(2);
        let s = p.install(Stream::new(0, 0), 21);
        assert_eq!(p.next_to_issue(20), None);
        assert_eq!(p.next_to_issue(21), Some(s));
    }

    #[test]
    fn parked_streams_do_not_issue_until_woken() {
        let mut p = Processor::new(2);
        let s = p.install(Stream::new(0, 0), 0);
        assert_eq!(p.next_to_issue(0), Some(s));
        p.park(s);
        // Even far in the future the parked stream stays quiet.
        assert_eq!(p.next_to_issue(1000), None);
        assert_eq!(p.next_event(1000), None);
        p.make_ready_at(s, 1005);
        assert_eq!(p.next_to_issue(1004), None);
        assert_eq!(p.next_to_issue(1005), Some(s));
    }

    #[test]
    fn remove_frees_the_context() {
        let mut p = Processor::new(1);
        let s = p.install(Stream::new(0, 0), 0);
        assert!(!p.has_free_slot());
        p.remove(s);
        assert!(p.has_free_slot());
        assert_eq!(p.live, 0);
        assert_eq!(p.peak_live, 1);
    }

    #[test]
    fn record_issue_tracks_per_slot_counts() {
        let mut p = Processor::new(3);
        let a = p.install(Stream::new(0, 0), 0);
        let b = p.install(Stream::new(0, 0), 0);
        p.record_issue(a);
        p.record_issue(a);
        p.record_issue(b);
        assert_eq!(p.issued, 3);
        assert_eq!(p.issued_per_slot[a], 2);
        assert_eq!(p.issued_per_slot[b], 1);
        assert_eq!(p.issued_per_slot.iter().sum::<u64>(), p.issued);
    }

    #[test]
    fn next_event_reports_pending_head() {
        let mut p = Processor::new(4);
        p.install(Stream::new(0, 0), 30);
        p.install(Stream::new(0, 0), 10);
        assert_eq!(p.next_event(0), Some(10));
    }

    /// The scheduler the calendar replaced, kept as its oracle: a min-heap
    /// of `(cycle, slot)`.
    #[derive(Default)]
    struct HeapModel(BinaryHeap<Reverse<(u64, usize)>>);

    impl HeapModel {
        fn push(&mut self, t: u64, slot: usize) {
            self.0.push(Reverse((t, slot)));
        }

        fn next_time(&self) -> Option<u64> {
            self.0.peek().map(|&Reverse((t, _))| t)
        }

        fn drain_due(&mut self, now: u64) -> Vec<usize> {
            let mut out = Vec::new();
            while let Some(&Reverse((t, slot))) = self.0.peek() {
                if t > now {
                    break;
                }
                self.0.pop();
                out.push(slot);
            }
            out
        }
    }

    fn drained(c: &mut Calendar, now: u64) -> Vec<usize> {
        let mut out = VecDeque::new();
        c.drain_due(now, &mut out);
        out.into()
    }

    /// How far from `now` a push lands: already due, the machine's own
    /// latencies, and both sides of the wheel's edge.
    const DELTAS: [i64; 13] = {
        let w = WHEEL as i64;
        [-5, -4, -3, -2, -1, 0, 1, 21, 70, w - 1, w, w + 1, 10 * w]
    };
    /// How far `now` moves between drains: within a bucket or two, and to
    /// either side of a wheel-length, so a drain crosses the wheel's edge.
    const STEPS: [u64; 7] = [0, 1, 21, WHEEL - 1, WHEEL, WHEEL + 1, 3 * WHEEL + 7];

    /// Run one script against both schedulers. A step is `(kind, a, b)`:
    /// kinds 0–5 push the first free slot at or after `b` (one entry per
    /// slot, as `Processor` keeps it) for `now + DELTAS[a]`, 6–8 move `now`
    /// on by `STEPS[a]` and drain, 9 only compares the next pending cycle.
    fn differential(n_slots: usize, script: &[(u8, usize, usize)]) -> Result<(), TestCaseError> {
        let (mut calendar, mut heap) = (Calendar::new(n_slots), HeapModel::default());
        let mut pending = vec![false; n_slots];
        let mut now = 0u64;
        for &(kind, a, b) in script {
            match kind {
                0..=5 => {
                    let free = (0..n_slots)
                        .map(|i| (b + i) % n_slots)
                        .find(|&s| !pending[s]);
                    if let Some(slot) = free {
                        let t = now.saturating_add_signed(DELTAS[a % DELTAS.len()]);
                        pending[slot] = true;
                        calendar.push(t, slot);
                        heap.push(t, slot);
                    }
                }
                6..=8 => {
                    now += STEPS[a % STEPS.len()];
                    let handed = drained(&mut calendar, now);
                    prop_assert_eq!(&handed, &heap.drain_due(now), "drain at {}", now);
                    for slot in handed {
                        pending[slot] = false;
                    }
                }
                _ => {}
            }
            prop_assert_eq!(calendar.next_time(), heap.next_time(), "at {}", now);
        }
        // Whatever is left comes out, in order, once every push is due.
        let end = now + 11 * WHEEL;
        prop_assert_eq!(drained(&mut calendar, end), heap.drain_due(end));
        prop_assert_eq!(calendar.next_time(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn calendar_hands_out_what_the_heap_would(
            n_slots in prop_oneof![Just(1usize), Just(2), Just(128), Just(200)],
            script in proptest::collection::vec((0u8..10, 0usize..64, 0usize..200), 0..600),
        ) {
            differential(n_slots, &script)?;
        }
    }

    #[test]
    fn slots_due_at_one_cycle_come_out_ascending_whatever_the_push_order() {
        // 128 slots in a scrambled order (77 is coprime to 128), in the
        // wheel, beyond it and already due.
        for t in [0, 21, WHEEL, WHEEL + 1, 5 * WHEEL] {
            let mut c = Calendar::new(128);
            for i in 0..128 {
                c.push(t, (i * 77 + 5) % 128);
            }
            assert_eq!(c.next_time(), Some(t));
            if t > 0 {
                assert_eq!(drained(&mut c, t - 1), [] as [usize; 0]);
            }
            assert_eq!(drained(&mut c, t), (0..128).collect::<Vec<_>>(), "t = {t}");
            assert_eq!(c.next_time(), None);
        }
    }

    #[test]
    fn the_wheel_ends_exactly_wheel_cycles_out() {
        let mut c = Calendar::new(4);
        drained(&mut c, 1000);
        c.push(1000 + WHEEL, 0);
        c.push(1000 + WHEEL + 1, 1);
        assert_eq!(c.outside.clone().into_vec(), [Reverse((1001 + WHEEL, 1))]);
        assert_eq!(c.next_time(), Some(1000 + WHEEL));
        // The entry past the wheel round-trips through the heap: it is linked in
        // once the cursor is within `WHEEL` of it, and comes out on time.
        assert_eq!(drained(&mut c, 999 + WHEEL), [] as [usize; 0]);
        assert_eq!(drained(&mut c, 1000 + WHEEL), [0]);
        assert_eq!(c.next_time(), Some(1001 + WHEEL));
        assert_eq!(drained(&mut c, 1001 + WHEEL), [1]);
        assert!(c.outside.is_empty() && c.occupied == [0; 4]);
    }

    #[test]
    fn an_entry_the_wheel_comes_to_span_is_linked_when_its_cycle_drains() {
        let mut c = Calendar::new(4);
        c.push(WHEEL + 10, 1);
        c.push(3, 3);
        // The drain to 20 brings `WHEEL + 10` within the wheel's span, but
        // the entry stays on the heap: nothing before it is due yet.
        assert_eq!(drained(&mut c, 20), [3]);
        assert_eq!(c.outside.clone().into_vec(), [Reverse((WHEEL + 10, 1))]);
        assert_eq!(c.next_time(), Some(WHEEL + 10));
        // Pushed now, the same cycle is linked straight into the wheel.
        c.push(WHEEL + 10, 2);
        c.push(WHEEL + 10, 0);
        assert_eq!(c.outside.len(), 1);
        assert_eq!(drained(&mut c, WHEEL + 9), [] as [usize; 0]);
        assert_eq!(drained(&mut c, WHEEL + 10), [0, 1, 2]);
        assert_eq!(c.next_time(), None);
        assert!(c.outside.is_empty() && c.occupied == [0; 4]);
    }

    #[test]
    fn a_jump_of_several_wheel_lengths_keeps_both_sides_in_order() {
        let mut c = Calendar::new(8);
        drained(&mut c, 40);
        let at = |d: u64| 40 + d;
        // Before the landing point, in push order that is not time order…
        c.push(at(3 * WHEEL + 5), 0);
        c.push(at(2), 1);
        c.push(at(WHEEL), 2);
        c.push(at(WHEEL + 1), 3);
        c.push(at(2), 4);
        c.push(at(0), 5);
        // …and after it.
        c.push(at(4 * WHEEL + 1), 6);
        c.push(at(9 * WHEEL), 7);
        assert_eq!(drained(&mut c, at(4 * WHEEL)), [5, 1, 4, 2, 3, 0]);
        assert_eq!(c.next_time(), Some(at(4 * WHEEL + 1)));
        assert_eq!(drained(&mut c, at(10 * WHEEL)), [6, 7]);
        assert_eq!(c.next_time(), None);
    }

    #[test]
    fn next_event_promotes_nothing() {
        let mut p = Processor::new(2);
        let a = p.install(Stream::new(0, 0), 0);
        let b = p.install(Stream::new(0, 0), 9);
        assert_eq!(p.next_to_issue(0), Some(a));
        p.remove(a);
        // `b` is due at 9, so 9 is the next event — but asking does not move
        // it to the ready queue: a stream installed for 9 afterwards, in
        // the lower slot, still issues first.
        assert_eq!(p.next_event(9), Some(9));
        let x = p.install(Stream::new(0, 0), 9);
        assert!(x < b);
        assert_eq!(p.next_to_issue(9), Some(x));
        assert_eq!(p.next_to_issue(9), Some(b));
    }

    #[test]
    #[should_panic(expected = "no free stream context")]
    fn install_panics_when_full() {
        let mut p = Processor::new(1);
        p.install(Stream::new(0, 0), 0);
        p.install(Stream::new(0, 0), 0);
    }
}
