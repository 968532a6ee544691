//! A Tera MTA processor: 128 hardware stream contexts, one instruction
//! issued per cycle from whichever stream is ready.
//!
//! The processor keeps a FIFO ready queue (streams that may issue now) and
//! a pending heap (streams whose current instruction completes at a known
//! future cycle). Switching between ready streams costs nothing — that is
//! the one-cycle context switch of the architecture. A stream that issues
//! re-enters the pending heap with its completion time; a stream whose
//! synchronized memory operation blocks is *parked* by the machine on the
//! word's waiter list and re-enters through [`Processor::make_ready_at`].

use crate::ir::{Reg, NUM_REGS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One hardware stream: a register set, a program counter, and the
/// lookahead scoreboard (when a register's value arrives; which memory
/// operations are still in flight).
#[derive(Debug, Clone)]
pub struct Stream {
    /// General-purpose registers; `regs[0]` is always zero.
    pub regs: [u64; NUM_REGS],
    /// Index of the next instruction to issue.
    pub pc: usize,
    /// Cycle at which each register's pending result arrives (0 = ready).
    pub reg_ready_at: [u64; NUM_REGS],
    /// Completion cycles of in-flight memory operations (lookahead mode).
    pub outstanding: Vec<u64>,
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
            reg_ready_at: [0; NUM_REGS],
            outstanding: Vec::new(),
            was_woken: false,
        }
    }

    /// Drop completed in-flight operations.
    pub fn prune_outstanding(&mut self, now: u64) {
        self.outstanding.retain(|&t| t > now);
    }

    /// Earliest completion among in-flight operations (`now` if none).
    pub fn earliest_outstanding(&self, now: u64) -> u64 {
        self.outstanding.iter().copied().min().unwrap_or(now)
    }

    /// Latest completion among in-flight operations (`now` if none).
    pub fn latest_outstanding(&self, now: u64) -> u64 {
        self.outstanding.iter().copied().max().unwrap_or(now)
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

/// Scheduling state of a stream slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// In the ready queue or pending heap.
    Scheduled,
    /// Parked on a full/empty waiter list; the machine will re-ready it.
    Parked,
}

/// A processor with a fixed number of hardware stream contexts.
///
/// A `Scheduled` slot has exactly one entry, in `pending` or in `ready`
/// (none while it is the one [`Processor::next_to_issue`] just handed out,
/// until the machine reschedules, parks or removes it); `Parked` and
/// `Free` slots have none. `promote` asserts it in debug builds.
#[derive(Debug)]
pub struct Processor {
    slots: Vec<Option<Stream>>,
    state: Vec<SlotState>,
    ready: VecDeque<usize>,
    pending: BinaryHeap<Reverse<(u64, usize)>>,
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
            pending: BinaryHeap::new(),
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

    /// Number of hardware contexts.
    pub fn n_streams(&self) -> usize {
        self.slots.len()
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
        self.pending.push(Reverse((ready_at, slot)));
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
        self.pending.push(Reverse((at, slot)));
    }

    /// Move every pending stream whose time has come into the ready queue.
    fn promote(&mut self, now: u64) {
        while let Some(&Reverse((t, slot))) = self.pending.peek() {
            if t > now {
                break;
            }
            self.pending.pop();
            debug_assert!(
                self.state[slot] == SlotState::Scheduled && self.slots[slot].is_some(),
                "a pending entry for slot {slot}, which is not scheduled"
            );
            self.ready.push_back(slot);
        }
    }

    /// Pick the stream to issue this cycle, if any (round-robin FIFO over
    /// ready streams).
    pub fn next_to_issue(&mut self, now: u64) -> Option<usize> {
        self.promote(now);
        self.ready.pop_front()
    }

    /// The earliest future cycle at which this processor could issue, given
    /// nothing external changes: `now` if a stream is ready, else the head
    /// of the pending heap. `None` if the processor is fully idle (no
    /// ready, no pending — only parked or free slots).
    pub fn next_event(&mut self, now: u64) -> Option<u64> {
        self.promote(now);
        if !self.ready.is_empty() {
            return Some(now);
        }
        self.pending.peek().map(|&Reverse((t, _))| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "no free stream context")]
    fn install_panics_when_full() {
        let mut p = Processor::new(1);
        p.install(Stream::new(0, 0), 0);
        p.install(Stream::new(0, 0), 0);
    }
}
