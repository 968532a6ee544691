//! The Tera MTA memory system: flat, cache-less, bank-interleaved shared
//! memory with a full/empty bit on every word.
//!
//! Words are interleaved across `n_banks` banks (the MTA used 64-way
//! interleaving); each bank services one access per `bank_service` cycles,
//! so hot-banking (e.g. a stride equal to the bank count) serializes while
//! unit-stride traffic spreads evenly. There is no cache anywhere —
//! latency tolerance comes entirely from stream multiplicity, which is the
//! architectural bet the paper evaluates.
//!
//! The host holds the words in pages of 1,024 words, each mapped on the
//! first write that lands on it. A word on an unmapped page reads as zero
//! and full, the MTA's born-full convention, and reading it maps nothing,
//! so a machine's size (`mem_words`) is an address bound, not a host
//! cost: a run pays for the pages its program writes.

/// Words per host page: a power of two.
const PAGE_WORDS: usize = 1 << 10;

/// One mapped page: its words' data and full/empty bits.
#[derive(Debug, Clone)]
struct Page {
    data: [u64; PAGE_WORDS],
    full: [bool; PAGE_WORDS],
}

impl Page {
    /// A page of words born full and zero, the state it had unmapped.
    fn new() -> Box<Self> {
        Box::new(Self {
            data: [0; PAGE_WORDS],
            full: [true; PAGE_WORDS],
        })
    }
}

/// Per-word synchronization state plus data. Words are born **full** (the
/// MTA convention for ordinary data); synchronization variables are
/// initialized empty explicitly.
#[derive(Debug, Clone)]
pub struct Memory {
    words: usize,
    pages: Vec<Option<Box<Page>>>,
    n_banks: usize,
    bank_service: u64,
    bank_free_at: Vec<u64>,
    stats: MemStats,
}

/// Number of buckets in [`MemStats::queue_wait_hist`].
pub const QUEUE_WAIT_BUCKETS: usize = 5;

/// Upper bounds (inclusive, in cycles) of the histogram buckets; the last
/// bucket is open-ended.
pub const QUEUE_WAIT_BOUNDS: [u64; QUEUE_WAIT_BUCKETS - 1] = [0, 4, 16, 64];

/// Aggregate memory-system statistics for a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Total accesses that reached a bank.
    pub accesses: u64,
    /// Total cycles accesses spent queued behind busy banks.
    pub bank_queue_cycles: u64,
    /// Histogram of per-access queue waits, in cycles: 0, 1–4, 5–16,
    /// 17–64, 65+. A tail in the high buckets is the hot-banking signature
    /// (e.g. a stride equal to the bank count); uniform traffic lands
    /// almost entirely in bucket 0.
    pub queue_wait_hist: [u64; QUEUE_WAIT_BUCKETS],
}

impl MemStats {
    /// Histogram bucket for a queue wait of `wait` cycles.
    pub fn wait_bucket(wait: u64) -> usize {
        QUEUE_WAIT_BOUNDS
            .iter()
            .position(|&b| wait <= b)
            .unwrap_or(QUEUE_WAIT_BUCKETS - 1)
    }

    /// Fraction of accesses that queued at all (bucket 0 excluded).
    pub fn queued_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.accesses - self.queue_wait_hist[0]) as f64 / self.accesses as f64
        }
    }
}

/// When a scheduled bank access starts service and completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankTiming {
    /// Cycle at which the bank begins servicing the access.
    pub start: u64,
    /// Cycle at which the bank is done (data available at the bank).
    pub done: u64,
}

impl Memory {
    /// A memory of `words` words across `n_banks` banks, each taking
    /// `bank_service` cycles per access. All words start full and zero.
    /// `words` bounds the addresses; no page is mapped until a write
    /// lands on it.
    pub fn new(words: usize, n_banks: usize, bank_service: u64) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        assert!(bank_service > 0, "bank service time must be positive");
        Self {
            words,
            pages: vec![None; words.div_ceil(PAGE_WORDS)],
            n_banks,
            bank_service,
            bank_free_at: vec![0; n_banks],
            stats: MemStats::default(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words
    }

    /// Whether the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// The bank a word lives in (word-interleaved).
    pub fn bank_of(&self, addr: usize) -> usize {
        addr % self.n_banks
    }

    /// Memory-system statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Check that `addr` is mapped.
    pub fn check(&self, addr: usize) -> Result<(), String> {
        if addr < self.words {
            Ok(())
        } else {
            Err(format!(
                "address {addr} out of range (memory has {} words)",
                self.words
            ))
        }
    }

    /// Schedule a bank access beginning no earlier than `now`; accounts
    /// queueing behind earlier accesses to the same bank.
    pub fn schedule_access(&mut self, addr: usize, now: u64) -> BankTiming {
        let bank = self.bank_of(addr);
        let start = now.max(self.bank_free_at[bank]);
        let done = start + self.bank_service;
        self.bank_free_at[bank] = done;
        let wait = start - now;
        self.stats.accesses += 1;
        self.stats.bank_queue_cycles += wait;
        self.stats.queue_wait_hist[MemStats::wait_bucket(wait)] += 1;
        BankTiming { start, done }
    }

    // ── data access (timing-free; the machine layers timing on top) ─────

    /// The page index and offset of `addr`; panics if it is out of range.
    fn locate(&self, addr: usize) -> (usize, usize) {
        assert!(
            addr < self.words,
            "address {addr} out of range (memory has {} words)",
            self.words
        );
        (addr / PAGE_WORDS, addr % PAGE_WORDS)
    }

    /// The value and full bit of `addr`, mapping nothing.
    fn word(&self, addr: usize) -> (u64, bool) {
        let (page, i) = self.locate(addr);
        match &self.pages[page] {
            Some(p) => (p.data[i], p.full[i]),
            None => (0, true),
        }
    }

    /// The page holding `addr`, mapped if it was not, and the offset.
    fn page_mut(&mut self, addr: usize) -> (&mut Page, usize) {
        let (page, i) = self.locate(addr);
        (self.pages[page].get_or_insert_with(Page::new), i)
    }

    /// Plain load, ignoring the full/empty bit.
    pub fn load(&self, addr: usize) -> u64 {
        self.word(addr).0
    }

    /// Plain store, ignoring the full/empty bit.
    pub fn store(&mut self, addr: usize, v: u64) {
        let (p, i) = self.page_mut(addr);
        p.data[i] = v;
    }

    /// Force the word empty (synchronization-variable initialization).
    pub fn set_empty(&mut self, addr: usize) {
        let (p, i) = self.page_mut(addr);
        p.full[i] = false;
    }

    /// Synchronized consuming load: if full, returns the value and sets the
    /// word empty; `None` if the word is empty.
    pub fn try_take(&mut self, addr: usize) -> Option<u64> {
        let (p, i) = self.page_mut(addr);
        if p.full[i] {
            p.full[i] = false;
            Some(p.data[i])
        } else {
            None
        }
    }

    /// Synchronized store: if empty, writes the value, sets full, and
    /// returns `true`; `false` if the word is full.
    pub fn try_put_sync(&mut self, addr: usize, v: u64) -> bool {
        let (p, i) = self.page_mut(addr);
        if p.full[i] {
            false
        } else {
            p.data[i] = v;
            p.full[i] = true;
            true
        }
    }

    /// Read-and-leave-full: value if full, `None` if empty.
    pub fn try_read_ff(&self, addr: usize) -> Option<u64> {
        let (v, full) = self.word(addr);
        full.then_some(v)
    }

    /// Unconditional publish: write and set full.
    pub fn put(&mut self, addr: usize, v: u64) {
        let (p, i) = self.page_mut(addr);
        p.data[i] = v;
        p.full[i] = true;
    }

    /// Atomic fetch-and-add (wrapping) on a full word; `None` if empty.
    pub fn try_fetch_add(&mut self, addr: usize, delta: u64) -> Option<u64> {
        let (p, i) = self.page_mut(addr);
        if p.full[i] {
            let old = p.data[i];
            p.data[i] = old.wrapping_add(delta);
            Some(old)
        } else {
            None
        }
    }

    /// Load a word as an `f64` bit pattern.
    pub fn load_f64(&self, addr: usize) -> f64 {
        f64::from_bits(self.load(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_start_full_and_zero() {
        let m = Memory::new(16, 4, 2);
        assert_eq!(m.len(), 16);
        for a in 0..16 {
            assert!(m.try_read_ff(a).is_some());
            assert_eq!(m.load(a), 0);
        }
    }

    #[test]
    fn bank_interleaving_is_modular() {
        let m = Memory::new(256, 64, 1);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(63), 63);
        assert_eq!(m.bank_of(64), 0);
        assert_eq!(m.bank_of(130), 2);
    }

    #[test]
    fn same_bank_accesses_queue() {
        let mut m = Memory::new(256, 64, 4);
        let t1 = m.schedule_access(0, 100);
        let t2 = m.schedule_access(64, 100); // same bank (0)
        assert_eq!(
            t1,
            BankTiming {
                start: 100,
                done: 104
            }
        );
        assert_eq!(
            t2,
            BankTiming {
                start: 104,
                done: 108
            }
        );
        assert_eq!(m.stats().bank_queue_cycles, 4);
        // One access went straight through, one waited 4 cycles (bucket 1).
        assert_eq!(m.stats().queue_wait_hist, [1, 1, 0, 0, 0]);
    }

    #[test]
    fn different_banks_do_not_queue() {
        let mut m = Memory::new(256, 64, 4);
        let t1 = m.schedule_access(0, 100);
        let t2 = m.schedule_access(1, 100);
        assert_eq!(t1.start, 100);
        assert_eq!(t2.start, 100);
        assert_eq!(m.stats().bank_queue_cycles, 0);
        assert_eq!(m.stats().queue_wait_hist, [2, 0, 0, 0, 0]);
        assert_eq!(m.stats().queued_fraction(), 0.0);
    }

    #[test]
    fn wait_buckets_split_at_documented_bounds() {
        for (wait, bucket) in [
            (0u64, 0usize),
            (1, 1),
            (4, 1),
            (5, 2),
            (16, 2),
            (17, 3),
            (64, 3),
            (65, 4),
            (10_000, 4),
        ] {
            assert_eq!(MemStats::wait_bucket(wait), bucket, "wait={wait}");
        }
    }

    #[test]
    fn hot_banking_fills_the_tail_buckets() {
        // 32 back-to-back accesses to the same bank: wait grows by the
        // 4-cycle service time each access, so the histogram must spread
        // into every bucket, and the queued fraction approaches 1.
        let mut m = Memory::new(256, 64, 4);
        for _ in 0..32 {
            m.schedule_access(0, 0);
        }
        let h = m.stats().queue_wait_hist;
        assert_eq!(h.iter().sum::<u64>(), 32);
        assert!(h[4] > 0, "65+ bucket must be populated: {h:?}");
        assert_eq!(h[0], 1, "only the first access avoids the queue");
        assert!(m.stats().queued_fraction() > 0.9);
    }

    #[test]
    fn take_empties_and_put_sync_fills() {
        let mut m = Memory::new(4, 2, 1);
        m.store(1, 42);
        assert_eq!(m.try_take(1), Some(42));
        assert!(m.try_read_ff(1).is_none());
        assert_eq!(m.try_take(1), None, "second take must block");
        assert!(m.try_put_sync(1, 7));
        assert!(m.try_read_ff(1).is_some());
        assert!(!m.try_put_sync(1, 8), "put on full word must block");
        assert_eq!(m.load(1), 7);
    }

    #[test]
    fn read_ff_leaves_full() {
        let mut m = Memory::new(4, 2, 1);
        m.store(2, 9);
        assert_eq!(m.try_read_ff(2), Some(9));
        assert!(m.try_read_ff(2).is_some());
        m.set_empty(2);
        assert_eq!(m.try_read_ff(2), None);
    }

    #[test]
    fn fetch_add_returns_old_and_blocks_on_empty() {
        let mut m = Memory::new(4, 2, 1);
        m.store(0, 10);
        assert_eq!(m.try_fetch_add(0, 5), Some(10));
        assert_eq!(m.load(0), 15);
        m.set_empty(0);
        assert_eq!(m.try_fetch_add(0, 5), None);
    }

    #[test]
    fn f64_round_trips() {
        let mut m = Memory::new(4, 2, 1);
        m.store(3, (-2.5f64).to_bits());
        assert_eq!(m.load_f64(3), -2.5);
    }

    #[test]
    fn bounds_check_reports_address() {
        let m = Memory::new(4, 2, 1);
        assert!(m.check(3).is_ok());
        let e = m.check(4).unwrap_err();
        assert!(e.contains("4"));
    }

    /// Pages mapped so far.
    fn mapped_pages(m: &Memory) -> usize {
        m.pages.iter().filter(|p| p.is_some()).count()
    }

    fn tera_sized() -> Memory {
        let cfg = crate::MtaConfig::tera(1);
        Memory::new(cfg.mem_words, cfg.n_banks, cfg.bank_service)
    }

    #[test]
    fn a_memory_maps_only_the_pages_it_writes() {
        let mut m = tera_sized();
        let last = m.len() - 1;
        assert_eq!(m.len(), 1 << 22);
        assert_eq!(mapped_pages(&m), 0);
        for a in [0, 1, PAGE_WORDS - 1, PAGE_WORDS, 100_000, last] {
            assert_eq!(m.load(a), 0);
            assert_eq!(m.try_read_ff(a), Some(0));
        }
        assert_eq!(mapped_pages(&m), 0, "reads map nothing");
        m.store(last, 7);
        assert_eq!(mapped_pages(&m), 1);
        assert_eq!(m.load(last), 7);
        assert_eq!(m.load(last - 1), 0);
        assert_eq!(m.try_read_ff(last - PAGE_WORDS), Some(0));
        assert_eq!(mapped_pages(&m), 1);
        assert!(m.check(last).is_ok());
        assert!(m.check(m.len()).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_out_of_range_load_panics() {
        let m = tera_sized();
        m.load(m.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_load_past_the_end_of_a_partial_page_panics() {
        let mut m = Memory::new(PAGE_WORDS + 3, 2, 1);
        m.store(PAGE_WORDS, 1);
        m.load(PAGE_WORDS + 3);
    }
}
