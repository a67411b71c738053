//! Load/store queue with store→load forwarding.
//!
//! Table 2: 64 entries, store-to-load forwarding, and conservative load
//! scheduling — "loads are executed when all previous store addresses are
//! known".  Stores update memory only at commit; until then younger loads to
//! the same word receive the value by forwarding.

use earlyreg_core::InstrId;
use std::collections::VecDeque;

/// Outcome of a forwarding lookup for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// The youngest older store to the same address supplied the value.
    Forwarded(u64),
    /// An older store to the same address exists but its data is not ready
    /// yet — the load must wait.
    MustWait,
    /// No older in-flight store matches; the load reads the memory system.
    NoMatch,
}

/// One queue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsqEntry {
    /// Owning instruction.
    pub id: InstrId,
    /// True for stores, false for loads.
    pub is_store: bool,
    /// Effective word address, once computed.
    pub addr: Option<usize>,
    /// Store data, once available (raw 64-bit pattern).
    pub data: Option<u64>,
}

/// The load/store queue, ordered oldest → youngest.
///
/// Next to the queue itself, an id-sorted side list tracks the stores whose
/// effective address is still unknown, so the conservative load-scheduling
/// check ("all previous store addresses known") is O(1) per issue attempt
/// instead of a scan of the whole queue.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// Ids of stores with `addr == None`, ascending (program order).
    unknown_addr_stores: VecDeque<InstrId>,
}

impl LoadStoreQueue {
    /// Create an empty queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LoadStoreQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            unknown_addr_stores: VecDeque::new(),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further instruction can be inserted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn position(&self, id: InstrId) -> Option<usize> {
        let idx = self.entries.partition_point(|e| e.id < id);
        (idx < self.entries.len() && self.entries[idx].id == id).then_some(idx)
    }

    /// Insert a memory instruction at dispatch (program order).
    ///
    /// # Panics
    /// Panics if the queue is full (the dispatch stage must check first) or
    /// if program order is violated.
    pub fn insert(&mut self, id: InstrId, is_store: bool) {
        assert!(!self.is_full(), "LSQ overflow");
        if let Some(back) = self.entries.back() {
            assert!(
                back.id < id,
                "LSQ entries must be inserted in program order"
            );
        }
        self.entries.push_back(LsqEntry {
            id,
            is_store,
            addr: None,
            data: None,
        });
        if is_store {
            self.unknown_addr_stores.push_back(id);
        }
    }

    /// Drop `id` from the unknown-address store list, if present.
    fn mark_store_addr_known(&mut self, id: InstrId) {
        let idx = self.unknown_addr_stores.partition_point(|&s| s < id);
        if self.unknown_addr_stores.get(idx) == Some(&id) {
            self.unknown_addr_stores.remove(idx);
        }
    }

    /// Record the effective address of an entry (loads and stores).
    pub fn set_address(&mut self, id: InstrId, addr: usize) {
        if let Some(i) = self.position(id) {
            if self.entries[i].is_store && self.entries[i].addr.is_none() {
                self.mark_store_addr_known(id);
            }
            self.entries[i].addr = Some(addr);
        }
    }

    /// Record the data of a store.
    pub fn set_store_data(&mut self, id: InstrId, data: u64) {
        if let Some(i) = self.position(id) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].data = Some(data);
        }
    }

    /// Access an entry (tests / commit stage).
    pub fn get(&self, id: InstrId) -> Option<&LsqEntry> {
        self.position(id).map(|i| &self.entries[i])
    }

    /// Conservative load scheduling check: every store *older* than `id` has
    /// a known address.  O(1): the oldest unknown-address store is the front
    /// of the side list.
    pub fn prior_store_addresses_known(&self, id: InstrId) -> bool {
        self.unknown_addr_stores.front().is_none_or(|&s| s >= id)
    }

    /// Forwarding lookup for the load `id` at `addr`.
    pub fn forward(&self, id: InstrId, addr: usize) -> ForwardResult {
        // Youngest older store to the same address wins: walk backwards from
        // the load's position and stop at the first match.
        let older = self.entries.partition_point(|e| e.id < id);
        for e in self.entries.iter().take(older).rev() {
            if e.is_store && e.addr == Some(addr) {
                return match e.data {
                    Some(v) => ForwardResult::Forwarded(v),
                    None => ForwardResult::MustWait,
                };
            }
        }
        ForwardResult::NoMatch
    }

    /// Remove an entry (at commit).
    pub fn remove(&mut self, id: InstrId) {
        if let Some(i) = self.position(id) {
            if self.entries[i].is_store && self.entries[i].addr.is_none() {
                self.mark_store_addr_known(id);
            }
            self.entries.remove(i);
        }
    }

    /// Remove every entry strictly younger than `id` (branch misprediction).
    pub fn squash_after(&mut self, id: InstrId) {
        while let Some(back) = self.entries.back() {
            if back.id > id {
                self.entries.pop_back();
            } else {
                break;
            }
        }
        while let Some(&back) = self.unknown_addr_stores.back() {
            if back > id {
                self.unknown_addr_stores.pop_back();
            } else {
                break;
            }
        }
    }

    /// Remove everything (exception recovery).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.unknown_addr_stores.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> InstrId {
        InstrId(n)
    }

    #[test]
    fn insert_and_capacity() {
        let mut q = LoadStoreQueue::new(2);
        assert!(q.is_empty());
        q.insert(id(1), true);
        q.insert(id(2), false);
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut q = LoadStoreQueue::new(1);
        q.insert(id(1), true);
        q.insert(id(2), true);
    }

    #[test]
    fn conservative_load_scheduling() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(id(1), true); // store, address unknown
        q.insert(id(2), false); // load
        assert!(!q.prior_store_addresses_known(id(2)));
        q.set_address(id(1), 100);
        assert!(q.prior_store_addresses_known(id(2)));
        // A store *younger* than the load does not block it.
        q.insert(id(3), true);
        assert!(q.prior_store_addresses_known(id(2)));
    }

    #[test]
    fn forwarding_from_the_youngest_matching_store() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(id(1), true);
        q.insert(id(2), true);
        q.insert(id(4), false);
        q.set_address(id(1), 50);
        q.set_store_data(id(1), 111);
        q.set_address(id(2), 50);
        q.set_store_data(id(2), 222);
        assert_eq!(q.forward(id(4), 50), ForwardResult::Forwarded(222));
        assert_eq!(q.forward(id(4), 51), ForwardResult::NoMatch);
    }

    #[test]
    fn forwarding_waits_for_store_data() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(id(1), true);
        q.insert(id(2), false);
        q.set_address(id(1), 9);
        assert_eq!(q.forward(id(2), 9), ForwardResult::MustWait);
        q.set_store_data(id(1), 5);
        assert_eq!(q.forward(id(2), 9), ForwardResult::Forwarded(5));
    }

    #[test]
    fn forwarding_ignores_younger_stores() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(id(2), false);
        q.insert(id(3), true);
        q.set_address(id(3), 7);
        q.set_store_data(id(3), 42);
        assert_eq!(q.forward(id(2), 7), ForwardResult::NoMatch);
    }

    #[test]
    fn remove_and_squash() {
        let mut q = LoadStoreQueue::new(8);
        for n in 1..=5 {
            q.insert(id(n), n % 2 == 0);
        }
        q.remove(id(1));
        assert_eq!(q.len(), 4);
        q.squash_after(id(3));
        assert_eq!(q.len(), 2);
        assert!(q.get(id(3)).is_some());
        assert!(q.get(id(4)).is_none());
        q.clear();
        assert!(q.is_empty());
    }
}
