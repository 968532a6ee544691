//! The shared interconnect: a bandwidth-limited resource every line fill,
//! upgrade, and writeback must cross.
//!
//! Modeled exactly like a memory bank in `mta-sim`: a transaction arriving
//! at time `t` starts at `max(t, busy_until)` and occupies the bus for a
//! fixed per-transaction time. On the Pentium Pro this is the front-side
//! bus; on the Exemplar the crossbar-to-memory path (wider, so its
//! per-transaction time is smaller, but it still saturates — Figure 4 of
//! the paper shows exactly that).

/// A single shared bus with fixed per-transaction occupancy.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Cycles each transaction occupies the bus.
    per_transaction: u64,
    busy_until: u64,
    transactions: u64,
    queue_cycles: u64,
}

impl Bus {
    /// A bus occupying `per_transaction` cycles per transaction.
    pub fn new(per_transaction: u64) -> Self {
        assert!(per_transaction > 0);
        Self {
            per_transaction,
            busy_until: 0,
            transactions: 0,
            queue_cycles: 0,
        }
    }

    /// Submit a transaction at `now`; returns its completion time.
    pub fn transact(&mut self, now: u64) -> u64 {
        let start = now.max(self.busy_until);
        self.queue_cycles += start - now;
        self.busy_until = start + self.per_transaction;
        self.transactions += 1;
        self.busy_until
    }

    /// Transactions carried so far.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles transactions spent waiting for the bus.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transactions_queue() {
        let mut b = Bus::new(10);
        assert_eq!(b.transact(0), 10);
        assert_eq!(b.transact(0), 20);
        assert_eq!(b.transact(5), 30);
        assert_eq!(b.transactions(), 3);
        assert_eq!(b.queue_cycles(), 10 + 15);
    }

    #[test]
    fn idle_bus_does_not_queue() {
        let mut b = Bus::new(10);
        assert_eq!(b.transact(0), 10);
        assert_eq!(b.transact(100), 110);
        assert_eq!(b.queue_cycles(), 0);
    }
}
