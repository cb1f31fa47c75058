//! Set-associative cache models and the two-level data-memory hierarchy
//! used by both timing models.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
}

impl CacheConfig {
    /// The PowerPC 620's L1 data cache: 32 KB, 8-way, 64 B lines.
    pub fn ppc620_l1d() -> CacheConfig {
        CacheConfig {
            size: 32 * 1024,
            ways: 8,
            line: 64,
        }
    }

    /// The Alpha 21164's L1 data cache: 8 KB, direct-mapped, 32 B lines.
    pub fn alpha_l1d() -> CacheConfig {
        CacheConfig {
            size: 8 * 1024,
            ways: 1,
            line: 32,
        }
    }

    /// A unified 512 KB 8-way L2 (620-class board cache).
    pub fn ppc620_l2() -> CacheConfig {
        CacheConfig {
            size: 512 * 1024,
            ways: 8,
            line: 64,
        }
    }

    /// The 21164's on-chip 96 KB 3-way L2.
    pub fn alpha_l2() -> CacheConfig {
        CacheConfig {
            size: 96 * 1024,
            ways: 3,
            line: 32,
        }
    }
}

/// One level of set-associative cache with true-LRU replacement.
///
/// The model tracks tags only (the functional simulator holds the data);
/// stores allocate on miss (write-allocate, write-back).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` tags: each set's `ways` entries are most recently
    /// used first, padded at the end with [`EMPTY_WAY`].
    tags: Vec<u64>,
    set_shift: u32,
    set_mask: u64,
    /// Width of the set index (`set_mask.count_ones()`), stored so an
    /// access needs no popcount.
    set_bits: u32,
    hits: u64,
    misses: u64,
}

/// The tag of an unfilled way. A real tag is an address shifted right
/// by at least one bit (line offset plus set index), so it never reaches
/// `u64::MAX`.
const EMPTY_WAY: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// line × ways, or non-power-of-two line/set count), or if it maps
    /// every byte to its own tag (one set of one-byte lines).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let n_sets = config.size / (config.line * config.ways);
        assert!(
            n_sets > 0 && n_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            config.line * n_sets > 1,
            "a cache of one set needs lines of at least two bytes"
        );
        Cache {
            config,
            tags: vec![EMPTY_WAY; n_sets * config.ways],
            set_shift: config.line.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            set_bits: n_sets.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The tags of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn set_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr >> self.set_shift;
        let first = (line_addr & self.set_mask) as usize * self.config.ways;
        (first..first + self.config.ways, line_addr >> self.set_bits)
    }

    /// Performs one access; returns `true` on hit. Misses allocate the
    /// line, evicting LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let set = &mut self.tags[set];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // The last way is the LRU line or an unfilled way.
            set.rotate_right(1);
            set[0] = tag;
            self.misses += 1;
            false
        }
    }

    /// Whether `addr` currently hits, without updating state (for
    /// lookahead decisions such as the 21164's no-predict-on-miss rule).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tags[set].contains(&tag)
    }
}

/// Cycle costs of the memory hierarchy levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatency {
    /// Extra cycles for an L1 miss that hits L2.
    pub l2: u64,
    /// Extra cycles for an L2 miss (main memory).
    pub memory: u64,
}

impl MemLatency {
    /// Latencies used by the 620 model (board L2 ≈ 8 cycles, memory ≈ 40).
    pub fn ppc620() -> MemLatency {
        MemLatency { l2: 8, memory: 40 }
    }

    /// Latencies used by the 21164 model (on-chip L2 ≈ 6, memory ≈ 40).
    pub fn alpha21164() -> MemLatency {
        MemLatency { l2: 6, memory: 40 }
    }
}

/// A two-level data-memory hierarchy: L1 + unified L2 + memory.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    l1: Cache,
    l2: Cache,
    latency: MemLatency,
    l2_accesses: u64,
}

impl MemHierarchy {
    /// Builds a hierarchy from level configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig, latency: MemLatency) -> MemHierarchy {
        MemHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            latency,
            l2_accesses: 0,
        }
    }

    /// The L1 cache.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Number of accesses that reached L2.
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }

    /// Performs an access and returns the *extra* cycles beyond the L1
    /// pipeline latency (0 on an L1 hit).
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            0
        } else {
            self.l2_accesses += 1;
            if self.l2.access(addr) {
                self.latency.l2
            } else {
                self.latency.l2 + self.latency.memory
            }
        }
    }

    /// Whether `addr` would hit L1, without side effects.
    pub fn probe_l1(&self, addr: u64) -> bool {
        self.l1.probe(addr)
    }
}

/// Dual-banked L1 port arbitration for the 620 (line-interleaved banks).
///
/// Each cycle, each bank can serve one access. A claim for a busy bank is
/// granted at the bank's next free cycle; the waiting cycles are counted
/// as *bank-conflict cycles* for the paper's Figure 9.
#[derive(Debug, Clone, Default)]
pub struct BankArbiter {
    busy: [u64; 2],
    conflict_cycles: u64,
    counted_until: u64,
    conflicts: u64,
}

impl BankArbiter {
    /// Creates an idle arbiter.
    pub fn new() -> BankArbiter {
        BankArbiter::default()
    }

    /// The bank an address maps to (line-interleaved, 64 B lines).
    #[inline]
    pub fn bank_of(addr: u64) -> usize {
        ((addr >> 6) & 1) as usize
    }

    /// Claims `addr`'s bank at the earliest cycle at or after `want`;
    /// returns the granted cycle. Delayed grants record a conflict.
    pub fn claim(&mut self, addr: u64, want: u64) -> u64 {
        let bank = Self::bank_of(addr);
        let granted = want.max(self.busy[bank]);
        self.busy[bank] = granted + 1;
        if granted > want {
            self.conflicts += 1;
            // Count the waited-through cycles, deduplicated across claims.
            let start = want.max(self.counted_until);
            if granted > start {
                self.conflict_cycles += granted - start;
                self.counted_until = granted;
            }
        }
        granted
    }

    /// Approximate number of cycles in which at least one bank conflict
    /// occurred.
    pub fn conflict_cycles(&self) -> u64 {
        self.conflict_cycles
    }

    /// Total delayed claims.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size: 1024,
            ways: 1,
            line: 64,
        });
        // Two addresses 1024 apart map to the same set.
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(!c.access(0), "must have been evicted");
    }

    #[test]
    fn lru_keeps_recent_lines() {
        let mut c = Cache::new(CacheConfig {
            size: 128,
            ways: 2,
            line: 64,
        });
        // One set of 2 ways (128 = 64*2): all aligned addresses collide.
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // touch 0: 128 becomes LRU
        assert!(!c.access(256)); // evicts 128
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = Cache::new(CacheConfig::ppc620_l1d());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1008));
        assert!(c.access(0x103f));
        assert!(!c.access(0x1040), "next line must miss");
    }

    /// The flat tag array behaves like a most-recently-used-first list
    /// per set, on direct-mapped, 3-way and 8-way geometries.
    #[test]
    fn matches_per_set_lru_lists() {
        for config in [
            CacheConfig::alpha_l1d(),
            CacheConfig::alpha_l2(),
            CacheConfig::ppc620_l1d(),
        ] {
            let mut cache = Cache::new(config);
            let n_sets = (config.size / (config.line * config.ways)) as u64;
            let mut lists = vec![Vec::new(); n_sets as usize];
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (4 * config.size as u64);
                let line = addr / config.line as u64;
                let (set, tag) = ((line % n_sets) as usize, line / n_sets);
                let list: &mut Vec<u64> = &mut lists[set];
                let hit = list.contains(&tag);
                assert_eq!(cache.probe(addr), hit);
                assert_eq!(cache.access(addr), hit);
                list.retain(|&t| t != tag);
                list.insert(0, tag);
                list.truncate(config.ways);
            }
        }
    }

    #[test]
    #[should_panic(expected = "lines of at least two bytes")]
    fn one_set_of_one_byte_lines_is_rejected() {
        Cache::new(CacheConfig {
            size: 4,
            ways: 4,
            line: 1,
        });
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = Cache::new(CacheConfig::alpha_l1d());
        assert!(!c.probe(0x2000));
        c.access(0x2000);
        assert!(c.probe(0x2000));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 0, "probe must not count as a hit");
    }

    #[test]
    fn hierarchy_latency_tiers() {
        let mut h = MemHierarchy::new(
            CacheConfig::alpha_l1d(),
            CacheConfig::alpha_l2(),
            MemLatency { l2: 6, memory: 40 },
        );
        assert_eq!(h.access(0x3000), 46, "cold miss goes to memory");
        assert_eq!(h.access(0x3000), 0, "L1 hit");
        // Evict from tiny L1 by conflict, still in L2.
        assert_eq!(h.access(0x3000 + 8 * 1024), 46);
        assert_eq!(h.access(0x3000), 6, "L1 miss, L2 hit");
        assert_eq!(h.l2_accesses(), 3);
    }

    #[test]
    fn bank_arbiter_counts_conflicts() {
        let mut b = BankArbiter::new();
        // Two accesses to the same bank in one cycle: second is delayed.
        assert_eq!(b.claim(0x0, 10), 10);
        assert_eq!(b.claim(0x80, 10), 11, "same bank (line-interleaved)");
        assert_eq!(b.claim(0x40, 10), 10, "other bank is free");
        assert_eq!(b.conflict_cycles(), 1);
        assert_eq!(b.conflicts(), 1);
        // Bank free again afterwards.
        assert_eq!(b.claim(0x80, 12), 12);
        assert_eq!(b.conflicts(), 1);
    }

    #[test]
    fn bank_arbiter_dedups_conflict_cycles() {
        let mut b = BankArbiter::new();
        // Three same-bank claims in one cycle: granted 5, 6, 7. Waited
        // cycles {5, 6} are counted once each.
        assert_eq!(b.claim(0x0, 5), 5);
        assert_eq!(b.claim(0x0, 5), 6);
        assert_eq!(b.claim(0x0, 5), 7);
        assert_eq!(b.conflict_cycles(), 2);
        assert_eq!(b.conflicts(), 2);
    }
}
