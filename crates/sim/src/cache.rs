//! Set-associative caches with true-LRU replacement and the two-level
//! hierarchy of the paper's Table 2 (split 32 KB L1s, unified 1 MB L2,
//! 50-cycle main memory).
//!
//! The model is a latency model: an access returns the number of cycles the
//! requesting instruction waits.  Caches are blocking per access but the
//! pipeline may have many overlapping accesses in flight (their latencies are
//! computed independently), which approximates a lock-up-free cache with
//! ample MSHRs — adequate for the register-pressure study the paper performs.

use crate::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio (0 when the cache was never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    last_used: u64,
}

/// One set-associative cache with LRU replacement.
///
/// Lines are stored set-major in one flat array (`sets × associativity`):
/// a single allocation instead of one `Vec` per set, which keeps simulator
/// construction cheap (the Table 2 hierarchy has thousands of sets) and the
/// way-scan of an access contiguous in memory.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    access_clock: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Build an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets = config.sets();
        Cache {
            lines: vec![Line::default(); sets * config.associativity],
            access_clock: 0,
            stats: CacheStats::default(),
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Access the line containing `byte_addr`; returns true on a hit.  The
    /// line is installed (LRU victim evicted) on a miss.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        self.access_clock += 1;
        let set_idx = ((byte_addr >> self.set_shift) & self.set_mask) as usize;
        let tag = byte_addr >> (self.set_shift + self.set_mask.count_ones());
        let base = set_idx * self.config.associativity;
        let set = &mut self.lines[base..base + self.config.associativity];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_used = self.access_clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Install into the LRU way (or the first invalid one).
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_used } else { 0 })
            .expect("associativity is non-zero");
        victim.valid = true;
        victim.tag = tag;
        victim.last_used = self.access_clock;
        false
    }
}

/// Per-level statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Accesses that went all the way to main memory.
    pub memory_accesses: u64,
}

/// The two-level hierarchy: split L1s, unified L2, flat main memory.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    memory_latency: u32,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Build a cold hierarchy.
    pub fn new(
        icache: CacheConfig,
        dcache: CacheConfig,
        l2: CacheConfig,
        memory_latency: u32,
    ) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(icache),
            l1d: Cache::new(dcache),
            l2: Cache::new(l2),
            memory_latency,
            memory_accesses: 0,
        }
    }

    /// Latency of an instruction fetch touching `byte_addr`.
    pub fn access_instruction(&mut self, byte_addr: u64) -> u32 {
        if self.l1i.access(byte_addr) {
            return self.l1i.config.hit_latency;
        }
        self.l1i.config.hit_latency + self.access_l2(byte_addr)
    }

    /// Latency of a data access (load or store) touching `byte_addr`.
    pub fn access_data(&mut self, byte_addr: u64) -> u32 {
        if self.l1d.access(byte_addr) {
            return self.l1d.config.hit_latency;
        }
        self.l1d.config.hit_latency + self.access_l2(byte_addr)
    }

    fn access_l2(&mut self, byte_addr: u64) -> u32 {
        if self.l2.access(byte_addr) {
            self.l2.config.hit_latency
        } else {
            self.memory_accesses += 1;
            self.l2.config.hit_latency + self.memory_latency
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            memory_accesses: self.memory_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(small_cache());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x104)); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        let c_cfg = small_cache(); // 8 sets, 2 ways
        let mut c = Cache::new(c_cfg);
        let set_stride = 64 * 8; // addresses this far apart map to the same set
        let a = 0u64;
        let b = set_stride;
        let d = 2 * set_stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a: b becomes LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn conflict_free_addresses_do_not_evict_each_other() {
        let mut c = Cache::new(small_cache());
        for set in 0..8u64 {
            assert!(!c.access(set * 64));
        }
        for set in 0..8u64 {
            assert!(c.access(set * 64));
        }
    }

    #[test]
    fn hierarchy_latencies_compose() {
        let mut h = MemoryHierarchy::new(
            small_cache(),
            small_cache(),
            CacheConfig {
                size_bytes: 4096,
                associativity: 2,
                line_bytes: 64,
                hit_latency: 12,
            },
            50,
        );
        // Cold: L1 miss + L2 miss + memory.
        assert_eq!(h.access_data(0x1000), 1 + 12 + 50);
        // Warm L1.
        assert_eq!(h.access_data(0x1000), 1);
        // A different line in the same L2 set region: L1 miss, L2 miss.
        assert_eq!(h.access_data(0x2000), 1 + 12 + 50);
        // Instruction accesses use their own L1 but share the L2.
        let lat = h.access_instruction(0x1000);
        assert_eq!(lat, 1 + 12); // L1I miss, L2 hit (brought in by the data access)
        assert_eq!(h.stats().memory_accesses, 2);
    }

    #[test]
    fn miss_ratio_reporting() {
        let mut c = Cache::new(small_cache());
        c.access(0);
        c.access(0);
        c.access(64);
        let s = c.stats();
        assert_eq!(s.accesses(), 3);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
