//! Set-associative LRU cache with MESI-lite state (enough coherence to
//! model invalidation traffic: a line is either absent, Shared, or
//! Modified/Exclusive — we do not distinguish M from E because the study's
//! traffic patterns never need the difference).

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in words.
    pub words: usize,
    /// Line size in words.
    pub line_words: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.words / (self.line_words * self.ways)
    }
}

/// Line coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Shared,
    Owned, // Modified-or-Exclusive
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: usize,
    state: LineState,
    /// LRU timestamp (higher = more recent).
    lru: u64,
    valid: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Present in the right state; no interconnect traffic.
    Hit,
    /// Absent: a line fill is required (and possibly an eviction).
    Miss,
    /// Present but Shared on a write: an upgrade (invalidate) is required.
    Upgrade,
}

/// One processor's private cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
    upgrades: u64,
}

impl Cache {
    /// An empty cache with the given geometry. Panics if the geometry is
    /// inconsistent (capacity not divisible into sets).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_words > 0 && config.ways > 0);
        assert!(
            config.words.is_multiple_of(config.line_words * config.ways) && config.sets() > 0,
            "cache capacity must divide into sets"
        );
        let n_lines = config.sets() * config.ways;
        Self {
            config,
            lines: vec![
                Line {
                    tag: 0,
                    state: LineState::Shared,
                    lru: 0,
                    valid: false
                };
                n_lines
            ],
            tick: 0,
            hits: 0,
            misses: 0,
            upgrades: 0,
        }
    }

    /// The line-aligned address (line id) of a word address.
    pub fn line_of(&self, addr: usize) -> usize {
        addr / self.config.line_words
    }

    fn set_range(&self, line_id: usize) -> std::ops::Range<usize> {
        let set = line_id % self.config.sets();
        let base = set * self.config.ways;
        base..base + self.config.ways
    }

    /// Access `addr`; `write` selects store semantics. Returns what the
    /// access requires. On `Miss` the line is installed (evicting LRU);
    /// on `Upgrade` the line moves to Owned. Interconnect cost is the
    /// caller's business — the cache only classifies.
    pub fn access(&mut self, addr: usize, write: bool) -> AccessResult {
        self.tick += 1;
        let line_id = self.line_of(addr);
        let tag = line_id;
        let range = self.set_range(line_id);

        // Probe.
        for i in range.clone() {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].lru = self.tick;
                if write && self.lines[i].state == LineState::Shared {
                    self.lines[i].state = LineState::Owned;
                    self.upgrades += 1;
                    return AccessResult::Upgrade;
                }
                self.hits += 1;
                return AccessResult::Hit;
            }
        }

        // Miss: install over the LRU way.
        let victim = range
            .clone()
            .min_by_key(|&i| {
                if self.lines[i].valid {
                    self.lines[i].lru
                } else {
                    0
                }
            })
            .expect("non-empty set");
        self.lines[victim] = Line {
            tag,
            state: if write {
                LineState::Owned
            } else {
                LineState::Shared
            },
            lru: self.tick,
            valid: true,
        };
        self.misses += 1;
        AccessResult::Miss
    }

    /// Invalidate the line containing `addr` if present (remote write).
    /// Returns whether a line was dropped.
    pub fn invalidate(&mut self, addr: usize) -> bool {
        let line_id = self.line_of(addr);
        for i in self.set_range(line_id) {
            if self.lines[i].valid && self.lines[i].tag == line_id {
                self.lines[i].valid = false;
                return true;
            }
        }
        false
    }

    /// (hits, misses, upgrades) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.upgrades)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the line containing `addr` is present.
    fn contains(c: &Cache, addr: usize) -> bool {
        let line_id = c.line_of(addr);
        c.set_range(line_id)
            .any(|i| c.lines[i].valid && c.lines[i].tag == line_id)
    }

    fn small() -> Cache {
        // 64 words, 4-word lines, 2-way → 8 sets.
        Cache::new(CacheConfig {
            words: 64,
            line_words: 4,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert_eq!(c.access(10, false), AccessResult::Miss);
        assert_eq!(c.access(10, false), AccessResult::Hit);
        assert_eq!(c.access(11, false), AccessResult::Hit, "same line");
        assert_eq!(c.access(12, false), AccessResult::Miss, "next line");
    }

    #[test]
    fn write_to_shared_line_upgrades_once() {
        let mut c = small();
        assert_eq!(c.access(0, false), AccessResult::Miss);
        assert_eq!(c.access(0, true), AccessResult::Upgrade);
        assert_eq!(c.access(0, true), AccessResult::Hit, "already owned");
    }

    #[test]
    fn write_miss_installs_owned() {
        let mut c = small();
        assert_eq!(c.access(0, true), AccessResult::Miss);
        assert_eq!(c.access(0, true), AccessResult::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = small();
        // 8 sets × 4-word lines: addresses 0, 32, 64 map to set 0.
        c.access(0, false);
        c.access(32, false);
        c.access(0, false); // touch 0 → 32 is LRU
        c.access(64, false); // evicts 32
        assert!(contains(&c, 0));
        assert!(!contains(&c, 32));
        assert!(contains(&c, 64));
    }

    #[test]
    fn invalidate_drops_the_line() {
        let mut c = small();
        c.access(20, false);
        assert!(contains(&c, 20));
        assert!(c.invalidate(20));
        assert!(!contains(&c, 20));
        assert!(!c.invalidate(20), "second invalidate finds nothing");
        assert_eq!(c.access(20, false), AccessResult::Miss);
    }

    #[test]
    fn streaming_hit_rate_is_line_reuse() {
        // Sequential word sweep: 1 miss per line → hit rate = 3/4 with
        // 4-word lines.
        let mut c = Cache::new(CacheConfig {
            words: 1024,
            line_words: 4,
            ways: 4,
        });
        for a in 0..4000 {
            c.access(a, false);
        }
        let (hits, misses, upgrades) = c.stats();
        let hr = hits as f64 / (hits + misses + upgrades) as f64;
        assert!((hr - 0.75).abs() < 0.01, "hit rate {hr}");
    }

    #[test]
    fn resident_working_set_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            words: 1024,
            line_words: 4,
            ways: 4,
        });
        for round in 0..10 {
            for a in 0..512 {
                let r = c.access(a, false);
                if round > 0 {
                    assert_eq!(r, AccessResult::Hit, "addr {a} round {round}");
                }
            }
        }
    }

    #[test]
    fn thrashing_working_set_misses() {
        // Working set 4× capacity, LRU → every access misses after warmup.
        let mut c = Cache::new(CacheConfig {
            words: 256,
            line_words: 4,
            ways: 2,
        });
        let mut late_hits = 0;
        for round in 0..4 {
            for a in (0..1024).step_by(4) {
                let r = c.access(a, false);
                if round == 3 && r == AccessResult::Hit {
                    late_hits += 1;
                }
            }
        }
        assert_eq!(
            late_hits, 0,
            "LRU must thrash on a cyclic over-capacity sweep"
        );
    }

    #[test]
    #[should_panic(expected = "divide into sets")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            words: 100,
            line_words: 4,
            ways: 3,
        });
    }
}
