//! The Constant Verification Unit (paper Section 3.3).
//!
//! The hardware CVU is a fully-associative CAM that compares every entry
//! at once. The model gets the same answers from indexes instead of
//! scans (DESIGN.md §8.2): a slab of at most `entries` nodes, an exact
//! LRU list threaded through the slab, and three direct-mapped, chained
//! indexes — by (source, address) for lookups and inserts, by source for
//! slot invalidations, and by 8-byte address block for stores.

use crate::config::CvuConfig;
use std::cmp::Reverse;

/// Whether the byte ranges `[a, a + a_width)` and `[b, b + b_width)`
/// intersect — the one overlap predicate behind every store lookup in
/// the CVU.
#[inline]
fn ranges_overlap(a: u64, a_width: u8, b: u64, b_width: u8) -> bool {
    a < b + b_width as u64 && b < a + a_width as u64
}

/// The end of a chain or list.
const NIL: u32 = u32::MAX;

/// Fibonacci-hashing multiplier, 2^64 divided by the golden ratio.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// log2 of the store index's block size: 8 bytes, the widest access.
const BLOCK_SHIFT: u32 = 3;

/// The first and last 8-byte block that `[addr, addr + width)` touches.
/// A zero-width range counts as touching the block of `addr`: the
/// overlap predicate can still match it there.
#[inline]
fn blocks(addr: u64, width: u8) -> (u64, u64) {
    let last = addr + u64::from(width.max(1)) - 1;
    (addr >> BLOCK_SHIFT, last >> BLOCK_SHIFT)
}

/// A CVU entry removed by a store, as reported by
/// [`Cvu::invalidate_store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvuVictim {
    /// The value source the entry certified (the LVP unit passes the
    /// backend's table index).
    pub source: usize,
    /// The certified data address.
    pub addr: u64,
    /// The certified access width in bytes.
    pub width: u8,
}

/// One slab node: a certified (source, address) pair, its width, and its
/// place in the LRU list.
#[derive(Debug, Clone, Copy)]
struct Node {
    source: usize,
    addr: u64,
    width: u8,
    /// When the entry was last inserted or hit; a larger stamp is more
    /// recent, so sorting by it gives LRU order without walking the list.
    stamp: u64,
    /// LRU neighbours: toward the most recently used end, and away from it.
    newer: u32,
    older: u32,
}

/// Direct-mapped buckets of intrusive, doubly linked chains. A link is an
/// index into `next`/`prev`; each index decides which links a node owns.
#[derive(Debug, Clone)]
struct Chains {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    fn new(buckets: usize, links: usize) -> Chains {
        Chains {
            head: vec![NIL; buckets],
            next: vec![NIL; links],
            prev: vec![NIL; links],
        }
    }

    #[inline]
    fn push(&mut self, bucket: usize, link: u32) {
        let first = self.head[bucket];
        self.next[link as usize] = first;
        self.prev[link as usize] = NIL;
        if first != NIL {
            self.prev[first as usize] = link;
        }
        self.head[bucket] = link;
    }

    #[inline]
    fn unlink(&mut self, bucket: usize, link: u32) {
        let (prev, next) = (self.prev[link as usize], self.next[link as usize]);
        if prev == NIL {
            self.head[bucket] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
    }
}

/// The Constant Verification Unit: a small fully-associative CAM keyed by
/// (value source, data address).
///
/// Entries are inserted when a constant-classified load executes and are
/// invalidated by any store whose byte range overlaps the entry's, keeping
/// certified LVPT entries coherent with main memory. A CAM hit therefore
/// *guarantees* the LVPT value is current, and the load may skip the
/// memory hierarchy entirely.
///
/// Replacement is LRU over the `entries` capacity. A source is an opaque
/// id for the table storage that supplies a load's predicted value; the
/// CVU only compares it.
///
/// Every operation is indexed rather than a scan over the entries:
/// lookups, inserts and [`Cvu::invalidate_index`] walk one hash chain,
/// and a store walks the chains of the 8-byte blocks it touches. No
/// operation allocates once the slab and the victim buffer have grown.
/// Byte ranges must not wrap past `u64::MAX`.
///
/// # Examples
///
/// ```
/// use lvp_predictor::{Cvu, CvuConfig};
/// let mut cvu = Cvu::new(CvuConfig { entries: 4 });
/// cvu.insert(7, 0x10_0000, 8);
/// assert!(cvu.lookup(7, 0x10_0000));
/// cvu.invalidate_store(0x10_0004, 4);  // overlapping store
/// assert!(!cvu.lookup(7, 0x10_0000));
/// ```
#[derive(Debug, Clone)]
pub struct Cvu {
    config: CvuConfig,
    /// The slab: grows to at most `config.entries` nodes.
    nodes: Vec<Node>,
    /// Slab nodes freed by invalidations, reused before the slab grows.
    free: Vec<u32>,
    /// Most and least recently used live nodes.
    mru: u32,
    lru: u32,
    /// Source of the nodes' recency stamps.
    clock: u64,
    /// `64 - log2(buckets)`: a hash keeps its top bits.
    shift: u32,
    /// Link `id` is node `id`, chained by (source, address).
    by_key: Chains,
    /// Link `id` is node `id`, chained by source.
    by_source: Chains,
    /// Links `2 id` and `2 id + 1` file node `id` under the first and
    /// second block it touches. The extra last bucket, `wide`, holds the
    /// rare node that touches more than two blocks, by link `2 id`.
    by_block: Chains,
    wide: usize,
    /// Scratch buffers of the store snoop, kept to avoid allocating.
    victim_ids: Vec<u32>,
    victims: Vec<CvuVictim>,
    /// Monotonic counters for the bandwidth statistics.
    invalidations: u64,
    evictions: u64,
}

impl Cvu {
    /// Creates an empty CVU; a capacity of 0 disables it (all lookups
    /// miss, inserts are dropped).
    pub fn new(config: CvuConfig) -> Cvu {
        let entries = config.entries;
        // At least two buckets per entry keeps the chains short.
        let buckets = (2 * entries).next_power_of_two().max(2);
        Cvu {
            config,
            nodes: Vec::with_capacity(entries),
            free: Vec::with_capacity(entries),
            mru: NIL,
            lru: NIL,
            clock: 0,
            shift: 64 - buckets.trailing_zeros(),
            by_key: Chains::new(buckets, entries),
            by_source: Chains::new(buckets, entries),
            by_block: Chains::new(buckets + 1, 2 * entries),
            wide: buckets,
            victim_ids: Vec::new(),
            victims: Vec::new(),
            invalidations: 0,
            evictions: 0,
        }
    }

    /// The configuration this CVU was built with.
    pub fn config(&self) -> &CvuConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the CVU holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries invalidated by stores so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Total entries evicted by capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    #[inline]
    fn bucket(&self, x: u64) -> usize {
        (x.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    #[inline]
    fn key_bucket(&self, source: usize, addr: u64) -> usize {
        self.bucket(addr ^ (source as u64).rotate_left(32))
    }

    /// The live node certifying `(source, addr)`, or [`NIL`].
    #[inline]
    fn find(&self, source: usize, addr: u64) -> u32 {
        let mut link = self.by_key.head[self.key_bucket(source, addr)];
        while link != NIL {
            let n = &self.nodes[link as usize];
            if n.source == source && n.addr == addr {
                break;
            }
            link = self.by_key.next[link as usize];
        }
        link
    }

    /// Makes `id`, which is in no LRU position, the most recently used.
    #[inline]
    fn push_mru(&mut self, id: u32) {
        self.clock += 1;
        let old = self.mru;
        let n = &mut self.nodes[id as usize];
        n.stamp = self.clock;
        n.newer = NIL;
        n.older = old;
        if old == NIL {
            self.lru = id;
        } else {
            self.nodes[old as usize].newer = id;
        }
        self.mru = id;
    }

    #[inline]
    fn unlink_lru(&mut self, id: u32) {
        let Node { newer, older, .. } = self.nodes[id as usize];
        if newer == NIL {
            self.mru = older;
        } else {
            self.nodes[newer as usize].older = older;
        }
        if older == NIL {
            self.lru = newer;
        } else {
            self.nodes[older as usize].newer = newer;
        }
    }

    /// Files `id` in the store index under each block its bytes touch.
    #[inline]
    fn file(&mut self, id: u32) {
        let Node { addr, width, .. } = self.nodes[id as usize];
        let (first, last) = blocks(addr, width);
        if last - first > 1 {
            self.by_block.push(self.wide, 2 * id);
            return;
        }
        self.by_block.push(self.bucket(first), 2 * id);
        if last > first {
            self.by_block.push(self.bucket(last), 2 * id + 1);
        }
    }

    /// Undoes [`Cvu::file`] for `id`'s current width.
    #[inline]
    fn unfile(&mut self, id: u32) {
        let Node { addr, width, .. } = self.nodes[id as usize];
        let (first, last) = blocks(addr, width);
        if last - first > 1 {
            self.by_block.unlink(self.wide, 2 * id);
            return;
        }
        self.by_block.unlink(self.bucket(first), 2 * id);
        if last > first {
            self.by_block.unlink(self.bucket(last), 2 * id + 1);
        }
    }

    /// Makes the live node `id` the most recently used.
    #[inline]
    fn touch(&mut self, id: u32) {
        self.unlink_lru(id);
        self.push_mru(id);
    }

    /// Unlinks `id` from the LRU list and every index, and frees it.
    #[inline]
    fn remove(&mut self, id: u32) {
        let Node { source, addr, .. } = self.nodes[id as usize];
        self.by_key.unlink(self.key_bucket(source, addr), id);
        self.by_source.unlink(self.bucket(source as u64), id);
        self.unfile(id);
        self.unlink_lru(id);
        self.free.push(id);
    }

    /// CAM search for `(source, addr)`. A hit refreshes LRU order and
    /// certifies that the value `source` supplies is coherent with
    /// memory at `addr`.
    pub fn lookup(&mut self, source: usize, addr: u64) -> bool {
        let id = self.find(source, addr);
        if id == NIL {
            return false;
        }
        self.touch(id);
        true
    }

    /// Inserts (or refreshes) the entry certifying `source` for the
    /// load at `addr` of `width` bytes, evicting the LRU entry if full.
    /// A refresh with a new width re-files the entry under the blocks
    /// the new width touches.
    pub fn insert(&mut self, source: usize, addr: u64, width: u8) {
        if self.config.entries == 0 {
            return;
        }
        let id = self.find(source, addr);
        if id != NIL {
            if self.nodes[id as usize].width != width {
                self.unfile(id);
                self.nodes[id as usize].width = width;
                self.file(id);
            }
            self.touch(id);
            return;
        }
        if self.len() == self.config.entries {
            self.remove(self.lru);
            self.evictions += 1;
        }
        let node = Node {
            source,
            addr,
            width,
            stamp: 0,
            newer: NIL,
            older: NIL,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.by_key.push(self.key_bucket(source, addr), id);
        self.by_source.push(self.bucket(source as u64), id);
        self.file(id);
        self.push_mru(id);
    }

    /// Invalidates every entry whose byte range overlaps a store of
    /// `width` bytes at `addr` (the fully-associative store lookup of
    /// Figure 3) and returns the removed entries, most recently used
    /// first, so the order does not depend on the index layout. The
    /// slice is valid until the next store; [`Cvu::invalidate_index`]
    /// leaves it alone.
    pub fn invalidate_store(&mut self, addr: u64, width: u8) -> &[CvuVictim] {
        self.snoop(addr, width);
        let nodes = &self.nodes;
        self.victim_ids
            .sort_unstable_by_key(|&id| Reverse(nodes[id as usize].stamp));
        self.victims.clear();
        for i in 0..self.victim_ids.len() {
            let id = self.victim_ids[i];
            let n = self.nodes[id as usize];
            self.victims.push(CvuVictim {
                source: n.source,
                addr: n.addr,
                width: n.width,
            });
            self.remove(id);
        }
        self.invalidations += self.victims.len() as u64;
        &self.victims
    }

    /// The entries the last [`Cvu::invalidate_store`] removed.
    pub(crate) fn store_victims(&self) -> &[CvuVictim] {
        &self.victims
    }

    /// Collects into `victim_ids` every entry overlapping the store per
    /// [`ranges_overlap`], each once, in no particular order. An entry
    /// filed under two blocks is taken at the first block it shares
    /// with the store.
    fn snoop(&mut self, addr: u64, width: u8) {
        self.victim_ids.clear();
        if self.is_empty() {
            return;
        }
        let (first, last) = blocks(addr, width);
        for block in first..=last {
            let mut link = self.by_block.head[self.bucket(block)];
            while link != NIL {
                let n = &self.nodes[(link / 2) as usize];
                let filed_first = n.addr >> BLOCK_SHIFT;
                if filed_first + u64::from(link % 2) == block
                    && filed_first.max(first) == block
                    && ranges_overlap(addr, width, n.addr, n.width)
                {
                    self.victim_ids.push(link / 2);
                }
                link = self.by_block.next[link as usize];
            }
        }
        let mut link = self.by_block.head[self.wide];
        while link != NIL {
            let n = &self.nodes[(link / 2) as usize];
            if ranges_overlap(addr, width, n.addr, n.width) {
                self.victim_ids.push(link / 2);
            }
            link = self.by_block.next[link as usize];
        }
    }

    /// Invalidates every entry certifying `source`; called when the
    /// value the source supplies is displaced (the certified value no
    /// longer exists in the table).
    pub fn invalidate_index(&mut self, source: usize) -> usize {
        let mut removed = 0;
        let mut link = self.by_source.head[self.bucket(source as u64)];
        while link != NIL {
            let next = self.by_source.next[link as usize];
            if self.nodes[link as usize].source == source {
                self.remove(link);
                removed += 1;
            }
            link = next;
        }
        removed
    }
}

#[cfg(test)]
mod reference {
    //! The original linear-scan CVU, kept as a differential oracle for
    //! the indexed one: a `Vec` in LRU order that every store, slot
    //! invalidation and lookup scans in full. Its store returns the
    //! removed entries in that order, as the indexed one must.
    use super::{ranges_overlap, CvuConfig, CvuVictim};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct CvuEntry {
        lvpt_index: usize,
        addr: u64,
        width: u8,
    }

    #[derive(Debug, Clone)]
    pub(super) struct Cvu {
        config: CvuConfig,
        /// LRU order: front = most recently used.
        entries: Vec<CvuEntry>,
        invalidations: u64,
        evictions: u64,
    }

    impl Cvu {
        pub(super) fn new(config: CvuConfig) -> Cvu {
            Cvu {
                config,
                entries: Vec::with_capacity(config.entries),
                invalidations: 0,
                evictions: 0,
            }
        }

        pub(super) fn len(&self) -> usize {
            self.entries.len()
        }

        pub(super) fn invalidations(&self) -> u64 {
            self.invalidations
        }

        pub(super) fn evictions(&self) -> u64 {
            self.evictions
        }

        pub(super) fn lookup(&mut self, lvpt_index: usize, addr: u64) -> bool {
            match self
                .entries
                .iter()
                .position(|e| e.lvpt_index == lvpt_index && e.addr == addr)
            {
                Some(pos) => {
                    self.entries[..=pos].rotate_right(1);
                    true
                }
                None => false,
            }
        }

        pub(super) fn insert(&mut self, lvpt_index: usize, addr: u64, width: u8) {
            if self.config.entries == 0 {
                return;
            }
            if let Some(pos) = self
                .entries
                .iter()
                .position(|e| e.lvpt_index == lvpt_index && e.addr == addr)
            {
                self.entries[pos].width = width;
                self.entries[..=pos].rotate_right(1);
                return;
            }
            if self.entries.len() == self.config.entries {
                self.entries.pop();
                self.evictions += 1;
            }
            self.entries.insert(
                0,
                CvuEntry {
                    lvpt_index,
                    addr,
                    width,
                },
            );
        }

        pub(super) fn invalidate_store(&mut self, addr: u64, width: u8) -> Vec<CvuVictim> {
            let mut victims = Vec::new();
            self.entries.retain(|e| {
                let hit = ranges_overlap(addr, width, e.addr, e.width);
                if hit {
                    victims.push(CvuVictim {
                        source: e.lvpt_index,
                        addr: e.addr,
                        width: e.width,
                    });
                }
                !hit
            });
            self.invalidations += victims.len() as u64;
            victims
        }

        pub(super) fn invalidate_index(&mut self, lvpt_index: usize) -> usize {
            let before = self.entries.len();
            self.entries.retain(|e| e.lvpt_index != lvpt_index);
            before - self.entries.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::rng::Lcg;

    fn cvu(n: usize) -> Cvu {
        Cvu::new(CvuConfig { entries: n })
    }

    #[test]
    fn overlap_predicate() {
        // Identical ranges.
        assert!(ranges_overlap(0x1000, 8, 0x1000, 8));
        // Store strictly inside the entry and vice versa.
        assert!(ranges_overlap(0x1003, 1, 0x1000, 8));
        assert!(ranges_overlap(0x1000, 8, 0x1003, 1));
        // Straddling either edge.
        assert!(ranges_overlap(0x0ffc, 8, 0x1000, 8));
        assert!(ranges_overlap(0x1004, 8, 0x1000, 8));
        // Exactly adjacent on both sides: no overlap (half-open ranges).
        assert!(!ranges_overlap(0x0ff8, 8, 0x1000, 8));
        assert!(!ranges_overlap(0x1008, 8, 0x1000, 8));
        // Disjoint.
        assert!(!ranges_overlap(0x2000, 8, 0x1000, 8));
    }

    #[test]
    fn insert_lookup_hit_and_miss() {
        let mut c = cvu(4);
        c.insert(1, 0x1000, 8);
        assert!(c.lookup(1, 0x1000));
        assert!(!c.lookup(1, 0x1008), "different address must miss");
        assert!(!c.lookup(2, 0x1000), "different source must miss");
    }

    #[test]
    fn store_invalidates_exact_and_overlapping() {
        let mut c = cvu(8);
        c.insert(1, 0x1000, 8);
        c.insert(2, 0x1010, 4);
        c.insert(3, 0x1020, 8);
        // A 1-byte store into the middle of the first entry kills it.
        assert_eq!(c.invalidate_store(0x1004, 1).len(), 1);
        assert!(!c.lookup(1, 0x1000));
        // An 8-byte store spanning 0x100c..0x1014 kills the word at 0x1010.
        assert_eq!(c.invalidate_store(0x100c, 8).len(), 1);
        assert!(!c.lookup(2, 0x1010));
        // Non-overlapping store leaves the last entry alone.
        assert!(c.invalidate_store(0x1028, 8).is_empty());
        assert!(c.lookup(3, 0x1020));
        assert_eq!(c.invalidations(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cvu(2);
        c.insert(1, 0x1000, 8);
        c.insert(2, 0x2000, 8);
        // Touch entry 1 so entry 2 becomes LRU.
        assert!(c.lookup(1, 0x1000));
        c.insert(3, 0x3000, 8);
        assert!(c.lookup(1, 0x1000), "recently used entry must survive");
        assert!(!c.lookup(2, 0x2000), "LRU entry must be evicted");
        assert!(c.lookup(3, 0x3000));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = cvu(0);
        c.insert(1, 0x1000, 8);
        assert!(!c.lookup(1, 0x1000));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_index_removes_all_certifications() {
        let mut c = cvu(8);
        c.insert(5, 0x1000, 8);
        c.insert(5, 0x2000, 8);
        c.insert(6, 0x3000, 8);
        assert_eq!(c.invalidate_index(5), 2);
        assert!(!c.lookup(5, 0x1000));
        assert!(c.lookup(6, 0x3000));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = cvu(4);
        c.insert(1, 0x1000, 8);
        c.insert(1, 0x1000, 8);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_with_new_width_moves_blocks() {
        let mut c = cvu(4);
        // 4 bytes at 0x1006 straddle into the next block; 2 do not.
        c.insert(1, 0x1006, 4);
        c.insert(1, 0x1006, 2);
        assert!(c.invalidate_store(0x1008, 8).is_empty());
        c.insert(1, 0x1006, 4);
        assert_eq!(c.invalidate_store(0x1008, 8).len(), 1);
    }

    #[test]
    fn invalidate_store_reports_removed_entries() {
        let mut c = cvu(8);
        c.insert(1, 0x1000, 8);
        c.insert(2, 0x1010, 4);
        let victims = c.invalidate_store(0x1004, 1).to_vec();
        assert_eq!(
            victims,
            vec![CvuVictim {
                source: 1,
                addr: 0x1000,
                width: 8
            }]
        );
        assert!(!c.lookup(1, 0x1000));
        assert!(c.lookup(2, 0x1010));
        assert_eq!(c.invalidations(), 1);
        assert!(c.invalidate_store(0x2000, 8).is_empty());
    }

    /// What one differential run exercised, so the tests can show the
    /// streams reach the cases they are meant to cover.
    #[derive(Debug, Default)]
    struct Seen {
        hits: u64,
        evictions: u64,
        index_removals: u64,
        multi_victim_stores: u64,
        max_len: usize,
    }

    /// Runs one seeded op stream through the indexed CVU and the
    /// reference, comparing every result, `len()`, `invalidations()` and
    /// `evictions()` after each op. `sources` and `addrs` bound the key
    /// space: few of either make collisions, re-inserts and several
    /// addresses per source common. `churn` is the percentage of ops
    /// that remove entries (slot invalidations and stores); half of the
    /// other ops reuse one of the last 64 inserted keys, so lookups hit
    /// and re-inserts change widths even in a large key space.
    fn differential(
        seed: u64,
        capacity: usize,
        ops: usize,
        (sources, addrs): (u64, u64),
        churn: u64,
    ) -> Seen {
        const WIDTHS: [u8; 4] = [1, 2, 4, 8];
        let mut rng = Lcg::new(seed);
        let mut got = cvu(capacity);
        let mut want = reference::Cvu::new(CvuConfig { entries: capacity });
        let mut seen = Seen::default();
        let mut recent: Vec<(usize, u64)> = Vec::new();
        // Mostly 8-aligned addresses, and unaligned ones that straddle
        // 8-byte blocks.
        let addr = |rng: &mut Lcg| {
            let slot = 0x10_0000 + 8 * rng.below(addrs);
            if rng.chance(1, 3) {
                slot + rng.below(8)
            } else {
                slot
            }
        };
        for op in 0..ops {
            let at = |what: &str| format!("seed {seed}, capacity {capacity}, op {op}: {what}");
            let key = |rng: &mut Lcg| {
                if !recent.is_empty() && rng.chance(1, 2) {
                    *rng.pick(&recent)
                } else {
                    (rng.below(sources) as usize, addr(rng))
                }
            };
            let roll = rng.below(100);
            if roll >= churn {
                let (s, a) = key(&mut rng);
                if roll.is_multiple_of(2) {
                    let hit = want.lookup(s, a);
                    assert_eq!(got.lookup(s, a), hit, "{}", at("lookup"));
                    seen.hits += u64::from(hit);
                } else {
                    // Now and then wider than a block, or empty.
                    let w = if rng.chance(1, 50) {
                        *rng.pick(&[0, 9, 16, 255])
                    } else {
                        *rng.pick(&WIDTHS)
                    };
                    got.insert(s, a, w);
                    want.insert(s, a, w);
                    if recent.len() == 64 {
                        recent.remove(0);
                    }
                    recent.push((s, a));
                }
            } else {
                match roll % 3 {
                    0 => {
                        let s = rng.below(sources) as usize;
                        let removed = want.invalidate_index(s);
                        assert_eq!(
                            got.invalidate_index(s),
                            removed,
                            "{}",
                            at("invalidate_index")
                        );
                        seen.index_removals += removed as u64;
                    }
                    branch => {
                        let a = addr(&mut rng);
                        // Now and then wider than a block, or empty.
                        let w = if branch == 2 && rng.chance(1, 20) {
                            *rng.pick(&[0, 16, 255])
                        } else {
                            *rng.pick(&WIDTHS)
                        };
                        let victims = want.invalidate_store(a, w);
                        assert_eq!(
                            got.invalidate_store(a, w),
                            victims.as_slice(),
                            "{}",
                            at("store")
                        );
                        seen.multi_victim_stores += u64::from(victims.len() > 1);
                    }
                }
            }
            assert_eq!(got.len(), want.len(), "{}", at("len"));
            assert_eq!(
                got.invalidations(),
                want.invalidations(),
                "{}",
                at("invalidations")
            );
            assert_eq!(got.evictions(), want.evictions(), "{}", at("evictions"));
            seen.max_len = seen.max_len.max(got.len());
        }
        seen.evictions = got.evictions();
        seen
    }

    #[test]
    fn indexed_cvu_matches_linear_reference() {
        for (i, capacity) in [0usize, 1, 2, 3, 32, 128].into_iter().enumerate() {
            let mut seen = Seen::default();
            for round in 0..4 {
                let seed = 8 * i as u64 + round;
                // A tight key space (source collisions, re-inserts,
                // several victims per store) and a roomy one (eviction
                // pressure).
                for run in [
                    differential(seed, capacity, 4_000, (4, 6), 30),
                    differential(seed + 1000, capacity, 4_000, (64, 48), 10),
                ] {
                    seen.hits += run.hits;
                    seen.evictions += run.evictions;
                    seen.index_removals += run.index_removals;
                    seen.multi_victim_stores += run.multi_victim_stores;
                    seen.max_len = seen.max_len.max(run.max_len);
                }
            }
            assert_eq!(seen.max_len, capacity, "capacity {capacity}: {seen:?}");
            if capacity > 0 {
                assert!(
                    seen.hits > 0 && seen.evictions > 0,
                    "capacity {capacity}: {seen:?}"
                );
                assert!(seen.index_removals > 0, "capacity {capacity}: {seen:?}");
            }
            if capacity > 1 {
                assert!(
                    seen.multi_victim_stores > 0,
                    "capacity {capacity}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn indexed_cvu_matches_linear_reference_without_eviction() {
        let seen = differential(77, 1 << 16, 20_000, (256, 2_048), 5);
        assert_eq!(seen.evictions, 0);
        assert!(seen.max_len > 1_000 && seen.hits > 1_000, "{seen:?}");
    }
}
