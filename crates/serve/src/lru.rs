//! The in-memory tier in front of the on-disk [`PointCache`]: a bounded
//! map of canonical cache key → statistics.
//!
//! The memory tier is content-addressed by the full canonical key, exactly
//! like the disk tier, so a hit is bit-identical to a cold local run.
//!
//! [`PointCache`]: earlyreg_experiments::PointCache

use earlyreg_sim::SimStats;
use std::collections::HashMap;

/// Entries the service's memory tier holds.
pub const LRU_CAPACITY: usize = 2048;

/// A bounded store of canonical-key → stats, evicting the least recently
/// used entry on overflow.  Recency is a monotonic tick; eviction scans for
/// the minimum, which is fine at the capacity this tier runs at (thousands)
/// given each hit saves a disk read + JSON parse.
pub struct Lru {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (SimStats, u64)>,
}

impl Lru {
    /// An empty store holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Look up a key, marking it most recently used.
    pub fn get(&mut self, key: &str) -> Option<SimStats> {
        self.tick += 1;
        let tick = self.tick;
        let (stats, touched) = self.entries.get_mut(key)?;
        *touched = tick;
        Some(stats.clone())
    }

    /// Insert (or refresh) a key, evicting the least recently used entry
    /// when the store is full.
    pub fn put(&mut self, key: &str, stats: &SimStats) {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(key, _)| key.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries
            .insert(key.to_string(), (stats.clone(), self.tick));
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_is_bounded_and_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        let stats_a = SimStats {
            cycles: 1,
            ..Default::default()
        };
        let stats_b = SimStats {
            cycles: 2,
            ..Default::default()
        };
        let stats_c = SimStats {
            cycles: 3,
            ..Default::default()
        };
        lru.put("a", &stats_a);
        lru.put("b", &stats_b);
        assert!(lru.get("a").is_some()); // refresh a: b is now oldest
        lru.put("c", &stats_c);
        assert_eq!(lru.len(), 2, "capacity is a hard bound");
        assert!(lru.get("b").is_none(), "b was least recently used");
        assert_eq!(lru.get("a").unwrap().cycles, 1);
        assert_eq!(lru.get("c").unwrap().cycles, 3);
    }
}
