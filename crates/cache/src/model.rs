//! The runtime cache model: LRU, dirty state, locked repair lines.

use crate::config::{CacheConfig, Indexing};
use relaxfault_util::bits::mask;

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the block was resident.
    pub hit: bool,
    /// On a miss that allocated over a valid dirty line, the evicted victim.
    pub evicted: Option<Evicted>,
    /// On a miss in a set whose ways are all locked, the access bypasses the
    /// cache (no allocation).
    pub bypassed: bool,
}

/// A victim written back on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Byte address of the victim block (reconstructable because the model
    /// stores full block addresses).
    pub addr: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

/// Aggregate access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses that could not allocate (fully locked set).
    pub bypasses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate over all demand accesses (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Tag-word bit that marks a RelaxFault repair line (the Figure 4
/// indicator). Normal block addresses never set it.
const REPAIR: u64 = 1 << 63;
/// Tag word of an invalid line, and of the placeholder lines the
/// capacity-loss locks install. Bit 62 is set, which no block address of a
/// line of at least 4 bytes can reach, so it matches no lookup in either
/// tag space.
const NO_TAG: u64 = u64::MAX;
/// Recency stamp of a valid unlocked line: `tick << 1 | DIRTY`.
const DIRTY: u32 = 1;
/// Recency stamp of an invalid line: older than any valid line, so the
/// first invalid way wins victim choice.
const INVALID: u32 = 0;
/// Recency stamp of a locked line: never a victim (so its low bit is never
/// read as [`DIRTY`]).
const LOCKED: u32 = u32::MAX;
/// The last tick handed out before stamps are renormalised; its dirty
/// stamp stays below [`LOCKED`].
const MAX_TICK: u32 = (LOCKED >> 1) - 1;

/// A set-associative cache with LRU replacement, way locking, and a
/// RelaxFault tag space.
///
/// Normal accesses go through [`Cache::access`]; repair lines are installed
/// with [`Cache::lock_repair_line`] and looked up with
/// [`Cache::probe_repair`]. A repair line never hits a normal access and
/// vice versa — the one-bit tag extension of the paper's Figure 4.
///
/// Line state is stored as two arrays in set-major order: a `u64` tag word
/// (block address, repair bit, or [`NO_TAG`]), so a lookup is one equality
/// per way, and a `u32` recency stamp holding the LRU tick and the dirty
/// bit, or marking the line invalid or locked, so victim choice is one
/// minimum over the set. The set index is computed from shifts, masks and
/// rotation amounts precomputed at construction.
///
/// # Examples
///
/// ```
/// use relaxfault_cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::isca16_l1());
/// c.access(0x80, true);
/// let r = c.access(0x80, false);
/// assert!(r.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    offset_bits: u32,
    set_bits: u32,
    set_mask: u64,
    /// XOR-fold rotation of tag chunk `k + 1` (empty for canonical
    /// indexing).
    fold_rotations: Vec<u32>,
    tags: Vec<u64>,
    stamps: Vec<u32>,
    stats: CacheStats,
    tick: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`], or if its lines are
    /// narrower than 4 bytes (the tag word needs two spare bits).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid CacheConfig");
        assert!(cfg.line_bytes >= 4, "lines must be at least 4 bytes");
        let offset_bits = cfg.offset_bits();
        let set_bits = cfg.set_bits();
        let fold_rotations = match cfg.indexing {
            Indexing::XorFold { rotation } if set_bits > 0 => {
                // Same arithmetic as `CacheConfig::set_and_tag`, one entry
                // per set-index-wide chunk of the tag.
                let chunks = (64 - offset_bits - set_bits).div_ceil(set_bits);
                (1..=chunks)
                    .map(|k| rotation.wrapping_mul(k) % set_bits)
                    .collect()
            }
            _ => Vec::new(),
        };
        let lines = cfg.total_lines() as usize;
        Self {
            cfg,
            ways: cfg.ways as usize,
            offset_bits,
            set_bits,
            set_mask: mask(set_bits),
            fold_rotations,
            tags: vec![NO_TAG; lines],
            stamps: vec![INVALID; lines],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The block address of `addr` and the index of its set's first line.
    /// The set equals `CacheConfig::set_and_tag(addr).0`.
    fn locate(&self, addr: u64) -> (u64, usize) {
        let block = addr >> self.offset_bits;
        let mut set = block & self.set_mask;
        let mut rest = block >> self.set_bits;
        for &by in &self.fold_rotations {
            if rest == 0 {
                break;
            }
            let chunk = rest & self.set_mask;
            set ^= ((chunk << by) | (chunk >> (self.set_bits - by))) & self.set_mask;
            rest >>= self.set_bits;
        }
        (block, set as usize * self.ways)
    }

    fn next_tick(&mut self) -> u32 {
        if self.tick == MAX_TICK {
            self.renormalise_stamps();
        }
        self.tick += 1;
        self.tick
    }

    /// Rewrites the ticks of each set's valid unlocked lines to their
    /// recency ranks `1..=k`, preserving every set's LRU order and dirty
    /// bits, and restarts the tick above them.
    fn renormalise_stamps(&mut self) {
        let mut order = Vec::with_capacity(self.ways);
        for set in self.stamps.chunks_exact_mut(self.ways) {
            order.clear();
            order.extend((0..set.len()).filter(|&w| set[w] != INVALID && set[w] != LOCKED));
            order.sort_unstable_by_key(|&w| set[w]);
            for (rank, &w) in order.iter().enumerate() {
                set[w] = (rank as u32 + 1) << 1 | (set[w] & DIRTY);
            }
        }
        self.tick = self.ways as u32;
    }

    /// One pass over the set starting at `base`: `Ok(line)` if it holds
    /// `tag`, else `Err` with the line to fill — the first invalid unlocked
    /// way, else the least recently used unlocked way, or `None` when every
    /// way is locked.
    fn lookup(&self, base: usize, tag: u64) -> Result<usize, Option<usize>> {
        let set = base..base + self.ways;
        let mut victim = base;
        let mut oldest = LOCKED;
        let lines = self.tags[set.clone()].iter().zip(&self.stamps[set.clone()]);
        for (i, (&t, &s)) in set.zip(lines) {
            if t == tag {
                return Ok(i);
            }
            if s < oldest {
                oldest = s;
                victim = i;
            }
        }
        Err((oldest != LOCKED).then_some(victim))
    }

    /// Reports line `i`'s writeback, if it is dirty, before it is replaced.
    fn evict(&mut self, i: usize) -> Option<Evicted> {
        if self.stamps[i] & DIRTY == 0 {
            return None;
        }
        self.stats.writebacks += 1;
        Some(Evicted {
            addr: self.tags[i] << self.offset_bits,
            dirty: true,
        })
    }

    fn fill(&mut self, i: usize, tag: u64, stamp: u32) {
        self.tags[i] = tag;
        self.stamps[i] = stamp;
    }

    /// Demand access to a byte address; allocates on miss (LRU victim among
    /// unlocked ways). Returns hit/miss, any dirty victim, and whether the
    /// access had to bypass a fully locked set.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let (block, base) = self.locate(addr);
        let stamp = self.next_tick() << 1 | write as u32;
        let victim = match self.lookup(base, block) {
            Ok(i) => {
                self.stamps[i] = stamp | (self.stamps[i] & DIRTY);
                self.stats.hits += 1;
                return Access {
                    hit: true,
                    evicted: None,
                    bypassed: false,
                };
            }
            Err(victim) => victim,
        };
        self.stats.misses += 1;
        let Some(v) = victim else {
            self.stats.bypasses += 1;
            return Access {
                hit: false,
                evicted: None,
                bypassed: true,
            };
        };
        let evicted = self.evict(v);
        self.fill(v, block, stamp);
        Access {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Whether a normal block is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (block, base) = self.locate(addr);
        self.lookup(base, block).is_ok()
    }

    /// Whether a repair-space line is resident (no state change).
    ///
    /// `repair_addr` is an address in the RelaxFault repair space (built by
    /// `relaxfault-core`'s mapping); it is matched only against lines whose
    /// RelaxFault indicator is set.
    pub fn probe_repair(&self, repair_addr: u64) -> bool {
        let (block, base) = self.locate(repair_addr);
        self.lookup(base, block | REPAIR).is_ok()
    }

    /// Installs a locked repair line for `repair_addr`, evicting the LRU
    /// unlocked way of its set if needed. Returns the dirty victim, if any.
    ///
    /// # Errors
    ///
    /// Fails if every way of the set is already locked, or the line is
    /// already present.
    pub fn lock_repair_line(&mut self, repair_addr: u64) -> Result<Option<Evicted>, String> {
        let (block, base) = self.locate(repair_addr);
        let Err(victim) = self.lookup(base, block | REPAIR) else {
            return Err(format!("repair line {repair_addr:#x} already locked"));
        };
        self.next_tick();
        let Some(v) = victim else {
            return Err(format!("set {} fully locked", base / self.ways));
        };
        let evicted = self.evict(v);
        self.fill(v, block | REPAIR, LOCKED);
        Ok(evicted)
    }

    /// Locks `n` ways in every set (marks them unavailable for normal
    /// allocation), emulating repair occupancy the way the paper's
    /// performance study does.
    ///
    /// # Panics
    ///
    /// Panics if `n > ways`.
    pub fn lock_ways_per_set(&mut self, n: u32) {
        assert!(n <= self.cfg.ways, "cannot lock more ways than exist");
        for base in (0..self.stamps.len()).step_by(self.ways) {
            let mut locked = 0;
            for i in base..base + self.ways {
                if locked >= n {
                    break;
                }
                if self.stamps[i] != LOCKED {
                    self.fill(i, NO_TAG, LOCKED);
                    locked += 1;
                }
            }
        }
    }

    /// Locks one way in each of `line_count` distinct sets chosen by a
    /// caller-supplied selector (the paper's "randomly assign 100 KiB"
    /// experiment passes a random set sequence).
    ///
    /// Returns how many lines were actually locked (a set already saturated
    /// with locks is skipped).
    pub fn lock_lines_in_sets<I: IntoIterator<Item = u64>>(&mut self, sets: I) -> u64 {
        let mut locked = 0;
        for set in sets {
            let base = (set & self.set_mask) as usize * self.ways;
            let slot = (base..base + self.ways).find(|&i| self.stamps[i] != LOCKED);
            if let Some(i) = slot {
                self.fill(i, NO_TAG, LOCKED);
                locked += 1;
            }
        }
        locked
    }

    /// Number of locked ways in `set`.
    pub fn locked_ways_in_set(&self, set: u64) -> u32 {
        let base = set as usize * self.ways;
        self.stamps[base..base + self.ways]
            .iter()
            .filter(|&&s| s == LOCKED)
            .count() as u32
    }

    /// Total locked lines in the cache.
    pub fn total_locked(&self) -> u64 {
        self.stamps.iter().filter(|&&s| s == LOCKED).count() as u64
    }

    /// Unlocks and invalidates every locked line (repair teardown).
    pub fn unlock_all(&mut self) {
        for i in 0..self.stamps.len() {
            if self.stamps[i] == LOCKED {
                self.fill(i, NO_TAG, INVALID);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096, // 16 sets × 4 ways × 64 B
            ways: 4,
            line_bytes: 64,
            indexing: Indexing::Canonical,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different byte");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 5 conflicting blocks in a 4-way set (set 0: addresses k*16*64).
        let addrs: Vec<u64> = (0..5).map(|k| k * 16 * 64).collect();
        for &a in &addrs[..4] {
            c.access(a, false);
        }
        c.access(addrs[0], false); // refresh block 0
        c.access(addrs[4], false); // evicts block 1 (oldest)
        assert!(c.probe(addrs[0]));
        assert!(!c.probe(addrs[1]));
        assert!(c.probe(addrs[4]));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let addrs: Vec<u64> = (0..5).map(|k| k * 16 * 64).collect();
        c.access(addrs[0], true); // dirty
        for &a in &addrs[1..4] {
            c.access(a, false);
        }
        let r = c.access(addrs[4], false);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                addr: addrs[0],
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn repair_lines_do_not_match_normal_lookups() {
        let mut c = small();
        c.lock_repair_line(0x2000).unwrap();
        assert!(c.probe_repair(0x2000));
        assert!(!c.probe(0x2000), "repair bit isolates the tag space");
        assert!(!c.access(0x2000, false).hit);
        // And the normal line now coexists with the repair line.
        assert!(c.probe(0x2000));
        assert!(c.probe_repair(0x2000));
    }

    #[test]
    fn locked_lines_survive_pressure() {
        let mut c = small();
        c.lock_repair_line(0).unwrap();
        // Hammer the same set with conflicting normal blocks.
        for k in 0..64 {
            c.access(k * 16 * 64, true);
        }
        assert!(c.probe_repair(0));
        assert_eq!(c.locked_ways_in_set(0), 1);
    }

    #[test]
    fn fully_locked_set_bypasses() {
        let mut c = small();
        for k in 0..4 {
            // 4 distinct repair blocks landing in set 0.
            c.lock_repair_line(k * 16 * 64).unwrap();
        }
        let r = c.access(0, false);
        assert!(!r.hit);
        assert!(r.bypassed);
        assert_eq!(c.stats().bypasses, 1);
        // A fifth lock in the same set must fail.
        assert!(c.lock_repair_line(4 * 16 * 64).is_err());
    }

    #[test]
    fn duplicate_repair_lock_fails() {
        let mut c = small();
        c.lock_repair_line(0x40).unwrap();
        assert!(c.lock_repair_line(0x40).is_err());
    }

    #[test]
    fn lock_ways_per_set_reduces_capacity() {
        let mut c = small();
        c.lock_ways_per_set(1);
        assert_eq!(c.total_locked(), 16);
        for set in 0..16 {
            assert_eq!(c.locked_ways_in_set(set), 1);
        }
        // Still functions as a 3-way cache.
        let addrs: Vec<u64> = (0..3).map(|k| k * 16 * 64).collect();
        for &a in &addrs {
            c.access(a, false);
        }
        assert!(addrs.iter().all(|&a| c.probe(a)));
    }

    #[test]
    fn lock_lines_in_sets_counts() {
        let mut c = small();
        let n = c.lock_lines_in_sets([0u64, 1, 2, 0, 0, 0, 0]);
        // Set 0 saturates at 4 ways; 3 extra requests are dropped.
        assert_eq!(n, 6);
        assert_eq!(c.locked_ways_in_set(0), 4);
    }

    #[test]
    fn unlock_all_restores_capacity() {
        let mut c = small();
        c.lock_ways_per_set(4);
        assert!(c.access(0, false).bypassed);
        c.unlock_all();
        assert_eq!(c.total_locked(), 0);
        assert!(!c.access(0, false).bypassed);
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(64 * 16, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use relaxfault_util::prop;
    use relaxfault_util::{prop_assert, prop_assert_eq};

    /// Whatever the access pattern, structural invariants hold: lines
    /// per set never exceed associativity, stats balance, and locked
    /// lines survive.
    #[test]
    fn structural_invariants() {
        prop::check(48, |src| {
            let addrs = src.vec(1, 399, |s| (s.u64(0, (1 << 20) - 1), s.bool()));
            let locked_sets = src.vec(0, 7, |s| s.u64(0, 15));
            let cfg = CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
                indexing: Indexing::XorFold { rotation: 3 },
            };
            let mut c = Cache::new(cfg);
            let locked = c.lock_lines_in_sets(locked_sets.iter().copied());
            for &(a, w) in &addrs {
                let r = c.access(a, w);
                // A bypass can only happen in a fully locked set.
                if r.bypassed {
                    prop_assert_eq!(c.locked_ways_in_set(cfg.set_of(a)), cfg.ways);
                }
            }
            prop_assert_eq!(c.total_locked(), locked);
            let s = *c.stats();
            prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
            prop_assert!(s.bypasses <= s.misses);
            // Re-access of the most recent address must hit unless its set
            // is fully locked.
            let (last, _) = addrs[addrs.len() - 1];
            if c.locked_ways_in_set(cfg.set_of(last)) < cfg.ways {
                prop_assert!(c.probe(last));
            }
            Ok(())
        });
    }

    /// LRU is a permutation policy: filling a set with exactly `ways`
    /// distinct blocks keeps them all resident.
    #[test]
    fn full_set_retention() {
        prop::check(48, |src| {
            let base = src.u64(0, 15);
            let cfg = CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
                indexing: Indexing::Canonical,
            };
            let mut c = Cache::new(cfg);
            let addrs: Vec<u64> = (0..4).map(|k| (base + k * 16) * 64).collect();
            for &a in &addrs {
                c.access(a, false);
            }
            for &a in &addrs {
                prop_assert!(c.probe(a));
            }
            Ok(())
        });
    }

    /// The precomputed set index equals `CacheConfig::set_and_tag` for
    /// every address, across geometries, line sizes and fold rotations.
    #[test]
    fn precomputed_set_index_matches_config() {
        prop::check(512, |src| {
            let set_bits = src.u32(0, 14);
            let ways = 1u32 << src.u32(0, 4);
            let line_bytes = 1u32 << src.u32(2, 8);
            let indexing = if set_bits > 0 && src.bool() {
                Indexing::XorFold {
                    rotation: src.u32(0, 40),
                }
            } else {
                Indexing::Canonical
            };
            let cfg = CacheConfig {
                size_bytes: (1u64 << set_bits) * ways as u64 * line_bytes as u64,
                ways,
                line_bytes,
                indexing,
            };
            let c = Cache::new(cfg);
            for _ in 0..16 {
                let addr = src.u64(0, u64::MAX);
                let (block, base) = c.locate(addr);
                prop_assert_eq!(block, addr >> cfg.offset_bits());
                prop_assert_eq!(
                    base as u64,
                    cfg.set_of(addr) * ways as u64,
                    "{cfg:?} {addr:#x}"
                );
            }
            Ok(())
        });
    }

    /// Recency stamps are 32-bit and renormalise when the tick runs out.
    /// A cache started just short of the wrap must behave exactly like one
    /// started from zero through the wrap, with invalid, locked and repair
    /// lines present when it happens.
    #[test]
    fn recency_wrap_preserves_lru_order() {
        prop::check(64, |src| {
            let cfg = CacheConfig {
                size_bytes: 8 * 4 * 64,
                ways: 4,
                line_bytes: 64,
                indexing: Indexing::XorFold { rotation: 1 },
            };
            let mut fresh = Cache::new(cfg);
            let mut wrapping = Cache::new(cfg);
            let headroom = src.u32(0, 200);
            wrapping.tick = MAX_TICK - headroom;
            let pool: Vec<u64> = (0..20).map(|k| k * 8 * 64).collect();
            let mixed = src.usize(0, 300);
            // A mixed sequence, then enough accesses to force the wrap if
            // the mixed part did not.
            for step in 0..mixed + headroom as usize + 1 {
                let a = pool[src.choice_index(pool.len())];
                let op = if step < mixed {
                    src.weighted(&[20, 2, 1, 1])
                } else {
                    0
                };
                match op {
                    0 => {
                        let w = src.bool();
                        prop_assert_eq!(fresh.access(a, w), wrapping.access(a, w));
                    }
                    1 => prop_assert_eq!(fresh.lock_repair_line(a), wrapping.lock_repair_line(a)),
                    2 => {
                        let set = src.u64(0, 7);
                        fresh.lock_lines_in_sets([set]);
                        wrapping.lock_lines_in_sets([set]);
                    }
                    _ => {
                        fresh.unlock_all();
                        wrapping.unlock_all();
                    }
                }
                for &p in &pool {
                    prop_assert_eq!(fresh.probe(p), wrapping.probe(p));
                    prop_assert_eq!(fresh.probe_repair(p), wrapping.probe_repair(p));
                }
            }
            prop_assert!(
                wrapping.tick < MAX_TICK - headroom,
                "the tick must have wrapped"
            );
            prop_assert_eq!(fresh.stats(), wrapping.stats());
            Ok(())
        });
    }
}
