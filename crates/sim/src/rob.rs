//! Pipeline view of the reorder structure.
//!
//! `earlyreg-core` keeps the *rename-side* bookkeeping of in-flight
//! instructions (physical identifiers, release bits).  This module keeps the
//! *pipeline-side* state: execution status, computed results, branch outcomes
//! and memory addresses.  Both are indexed by the same [`InstrId`] and sized
//! by the same Table 2 entry (128), mirroring how the paper treats the ROS as
//! one structure with several fields.
//!
//! ## Organisation
//!
//! The buffer is a fixed-capacity, slot-indexed ring
//! ([`earlyreg_core::IdRing`]): entries occupy stable physical slots for
//! their whole lifetime, `InstrId → slot` resolves in O(1) through a dense
//! id-window (ids are monotonically allocated; squash gaps map to an invalid
//! sentinel), and commits/squashes move only the head/tail cursors.  The
//! pipeline's event lists (ready instructions, scheduled completions) cache
//! `(id, slot)` pairs and revalidate them against the ring with
//! [`ReorderBuffer::at_slot`], so the per-cycle loops never scan the window.
//!
//! ## Struct-of-arrays scheduling state
//!
//! The fields the per-cycle scheduling loops *mutate* — execution status,
//! outstanding-source count, attention-list membership — live in dense
//! per-slot side arrays rather than in [`RobEntry`].  A wakeup or an issue
//! check touches a few bytes in a hot 2 KB array instead of pulling the
//! entry's several cache lines; the wide entry itself is written once at
//! dispatch and read back at issue/writeback/commit.  The side arrays are
//! only meaningful for occupied slots (callers validate the slot's id first,
//! exactly as they do for entry access), and are reset on push.

use crate::branch::Prediction;
use earlyreg_core::{HasInstrId, IdRing, InstrId, RenamedInstr};
use earlyreg_isa::Instruction;

/// Execution status of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrState {
    /// Renamed and waiting for operands / a functional unit.
    Dispatched,
    /// Executing; the result is available at `complete_at`.
    Issued {
        /// Cycle at which the result becomes available.
        complete_at: u64,
    },
    /// Finished execution; eligible to commit when it reaches the head.
    Completed,
}

/// One reorder-structure entry (pipeline view).
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Dynamic instruction identifier (shared with the rename unit).
    pub id: InstrId,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction itself.
    pub instr: Instruction,
    /// Operand physical registers.
    pub renamed: RenamedInstr,
    /// Direction prediction, for conditional branches.
    pub prediction: Option<Prediction>,
    /// Predicted direction (true also for unconditional jumps).
    pub predicted_taken: bool,
    /// PC the fetch unit continued at after this instruction.
    pub predicted_next: usize,
    /// Resolved direction of a conditional branch.
    pub actual_taken: Option<bool>,
    /// Correct next PC once resolved.
    pub actual_next: usize,
    /// Whether a conditional branch has been resolved (trained + recovered).
    pub resolved: bool,
    /// Destination result as a raw 64-bit pattern.
    pub result: Option<u64>,
    /// Effective word address of a memory operation.
    pub mem_addr: Option<usize>,
    /// Store data (raw bits).
    pub store_data: Option<u64>,
    /// Cycle the instruction entered the reorder structure.
    pub dispatched_at: u64,
    /// Committed position in the replay trace, or
    /// [`earlyreg_isa::NO_TRACE`] when not covered by a trace.
    pub trace_idx: u32,
}

impl HasInstrId for RobEntry {
    fn instr_id(&self) -> InstrId {
        self.id
    }
}

/// The reorder structure (pipeline view), ordered oldest → youngest.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    entries: IdRing<RobEntry>,
    capacity: usize,
    // Struct-of-arrays scheduling state, indexed by physical slot (see the
    // module documentation).  Values are meaningful only while the slot is
    // occupied; push resets them.
    /// Execution status.
    states: Vec<InstrState>,
    /// Unready source registers still being waited on (maintained by the
    /// pipeline's wakeup lists; duplicates count twice when both sources
    /// name the same register).
    waiting_srcs: Vec<u8>,
    /// True while the instruction is queued in the pipeline's issue
    /// attention list (guards against double insertion).
    in_attention: Vec<bool>,
}

impl ReorderBuffer {
    /// Create an empty buffer with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let entries: IdRing<RobEntry> = IdRing::with_capacity(capacity);
        let slots = entries.slot_count();
        ReorderBuffer {
            entries,
            capacity,
            states: vec![InstrState::Dispatched; slots],
            waiting_srcs: vec![0; slots],
            in_attention: vec![false; slots],
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further instruction can be dispatched.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Append a newly dispatched instruction; returns its stable slot index.
    /// The slot's scheduling state is reset (Dispatched, no outstanding
    /// sources, not in the attention list).
    pub fn push(&mut self, entry: RobEntry) -> u32 {
        assert!(!self.is_full(), "reorder structure overflow");
        let slot = self.entries.push(entry);
        self.states[slot as usize] = InstrState::Dispatched;
        self.waiting_srcs[slot as usize] = 0;
        self.in_attention[slot as usize] = false;
        slot
    }

    /// O(1) id → slot resolution.
    pub fn slot_of(&self, id: InstrId) -> Option<u32> {
        self.entries.slot_of(id)
    }

    /// Entry occupying `slot`, if any (callers revalidating cached
    /// `(id, slot)` pairs must compare ids).
    #[inline]
    pub fn at_slot(&self, slot: u32) -> Option<&RobEntry> {
        self.entries.at(slot)
    }

    /// Mutable access by slot.
    #[inline]
    pub fn at_slot_mut(&mut self, slot: u32) -> Option<&mut RobEntry> {
        self.entries.at_mut(slot)
    }

    /// Shared access by id (O(1)).
    pub fn get(&self, id: InstrId) -> Option<&RobEntry> {
        self.entries.get(id)
    }

    /// Mutable access by id (O(1)).
    pub fn get_mut(&mut self, id: InstrId) -> Option<&mut RobEntry> {
        self.entries.get_mut(id)
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Slot of the oldest entry.
    #[inline]
    pub fn head_slot(&self) -> Option<u32> {
        self.entries.front_slot()
    }

    /// Execution status of the (occupied, id-validated) slot.
    #[inline]
    pub fn state(&self, slot: u32) -> InstrState {
        self.states[slot as usize]
    }

    /// Update the execution status of a slot.
    #[inline]
    pub fn set_state(&mut self, slot: u32, state: InstrState) {
        self.states[slot as usize] = state;
    }

    /// Outstanding unready sources of a slot.
    #[inline]
    pub fn waiting_srcs(&self, slot: u32) -> u8 {
        self.waiting_srcs[slot as usize]
    }

    /// Update the outstanding-source count of a slot.
    #[inline]
    pub fn set_waiting_srcs(&mut self, slot: u32, n: u8) {
        self.waiting_srcs[slot as usize] = n;
    }

    /// Attention-list membership of a slot.
    #[inline]
    pub fn in_attention(&self, slot: u32) -> bool {
        self.in_attention[slot as usize]
    }

    /// Update the attention-list membership of a slot.
    #[inline]
    pub fn set_in_attention(&mut self, slot: u32, v: bool) {
        self.in_attention[slot as usize] = v;
    }

    /// Remove the oldest entry, which must be `id`.
    pub fn pop_head(&mut self, id: InstrId) -> RobEntry {
        assert!(!self.is_empty(), "pop from empty reorder structure");
        let head = self.entries.pop_front();
        assert_eq!(head.id, id, "commit must proceed in program order");
        head
    }

    /// Remove every entry strictly younger than `id`, returning how many were
    /// removed.
    pub fn squash_after(&mut self, id: InstrId) -> usize {
        self.entries.squash_after(id, false, |_| {})
    }

    /// Remove everything, returning how many entries were removed.
    pub fn clear(&mut self) -> usize {
        self.entries.drain_all(|_| {})
    }

    /// Iterate oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_isa::Instruction;

    fn entry(id: u64) -> RobEntry {
        RobEntry {
            id: InstrId(id),
            pc: id as usize,
            instr: Instruction::nop(),
            renamed: RenamedInstr {
                id: InstrId(id),
                src1: None,
                src2: None,
                dst: None,
            },
            prediction: None,
            predicted_taken: false,
            predicted_next: id as usize + 1,
            actual_taken: None,
            actual_next: 0,
            resolved: false,
            result: None,
            mem_addr: None,
            store_data: None,
            dispatched_at: 0,
            trace_idx: earlyreg_isa::NO_TRACE,
        }
    }

    #[test]
    fn push_lookup_pop() {
        let mut rob = ReorderBuffer::new(4);
        rob.push(entry(1));
        rob.push(entry(3));
        assert_eq!(rob.len(), 2);
        assert!(rob.get(InstrId(3)).is_some());
        assert!(rob.get(InstrId(2)).is_none());
        assert_eq!(rob.head().unwrap().id, InstrId(1));
        let popped = rob.pop_head(InstrId(1));
        assert_eq!(popped.id, InstrId(1));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rob = ReorderBuffer::new(2);
        rob.push(entry(1));
        rob.push(entry(2));
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut rob = ReorderBuffer::new(1);
        rob.push(entry(1));
        rob.push(entry(2));
    }

    #[test]
    fn squash_after_removes_younger_entries() {
        let mut rob = ReorderBuffer::new(8);
        for i in 1..=5 {
            rob.push(entry(i));
        }
        assert_eq!(rob.squash_after(InstrId(2)), 3);
        assert_eq!(rob.len(), 2);
        assert!(rob.get(InstrId(2)).is_some());
    }

    #[test]
    fn clear_reports_count() {
        let mut rob = ReorderBuffer::new(8);
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.clear(), 2);
        assert!(rob.is_empty());
    }

    #[test]
    fn state_transitions_are_representable() {
        let mut rob = ReorderBuffer::new(2);
        let slot = rob.push(entry(1));
        assert_eq!(rob.state(slot), InstrState::Dispatched);
        rob.set_state(slot, InstrState::Issued { complete_at: 7 });
        assert_eq!(rob.state(slot), InstrState::Issued { complete_at: 7 });
        rob.set_state(slot, InstrState::Completed);
        assert_eq!(rob.state(slot), InstrState::Completed);
    }

    #[test]
    fn push_resets_slot_scheduling_state() {
        let mut rob = ReorderBuffer::new(2);
        let slot = rob.push(entry(1));
        rob.set_state(slot, InstrState::Completed);
        rob.set_waiting_srcs(slot, 2);
        rob.set_in_attention(slot, true);
        rob.pop_head(InstrId(1));
        // A later push reusing the slot must start from a clean state.
        let mut reused = None;
        for id in 2..10 {
            let s = rob.push(entry(id));
            if s == slot {
                reused = Some(s);
                break;
            }
            rob.pop_head(InstrId(id));
        }
        let slot = reused.expect("the ring reuses vacated slots");
        assert_eq!(rob.state(slot), InstrState::Dispatched);
        assert_eq!(rob.waiting_srcs(slot), 0);
        assert!(!rob.in_attention(slot));
    }

    #[test]
    fn slots_are_stable_and_validate_by_id() {
        let mut rob = ReorderBuffer::new(4);
        let s1 = rob.push(entry(1));
        let s2 = rob.push(entry(2));
        assert_eq!(rob.at_slot(s2).unwrap().id, InstrId(2));
        rob.pop_head(InstrId(1));
        // Slot 2 is unaffected by the head moving.
        assert_eq!(rob.at_slot(s2).unwrap().id, InstrId(2));
        // Slot 1 is vacated; a later push may reuse it, detected by id.
        assert!(rob.at_slot(s1).is_none());
        for id in 3..=5 {
            rob.push(entry(id));
        }
        if let Some(e) = rob.at_slot(s1) {
            assert_ne!(e.id, InstrId(1));
        }
    }

    #[test]
    fn wraparound_after_many_squashes_keeps_lookups_exact() {
        // Drive the ring through many push/squash/commit rounds so the head
        // and tail wrap repeatedly and the id space accumulates squash gaps;
        // id lookups must stay exact throughout.
        let mut rob = ReorderBuffer::new(8);
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for round in 0..50 {
            while !rob.is_full() {
                rob.push(entry(next_id));
                live.push(next_id);
                next_id += 1;
            }
            // Squash a round-dependent suffix (0..=6 entries).
            let keep = live.len() - (round % 7);
            let pivot = live[keep - 1];
            assert_eq!(rob.squash_after(InstrId(pivot)), live.len() - keep);
            live.truncate(keep);
            // Simulate ids consumed elsewhere, then commit from the head.
            next_id += (round % 5) as u64;
            for _ in 0..2.min(live.len()) {
                let id = live.remove(0);
                assert_eq!(rob.pop_head(InstrId(id)).id, InstrId(id));
            }
            // Every live id resolves; squashed and unallocated ids do not.
            for &id in &live {
                assert_eq!(rob.get(InstrId(id)).unwrap().id, InstrId(id));
            }
            assert!(rob.get(InstrId(next_id + 1)).is_none());
        }
    }

    #[test]
    fn squash_after_at_every_offset() {
        for offset in 0..8u64 {
            let mut rob = ReorderBuffer::new(8);
            for id in 0..8 {
                rob.push(entry(id));
            }
            let removed = rob.squash_after(InstrId(offset));
            assert_eq!(removed as u64, 7 - offset);
            assert_eq!(rob.len() as u64, offset + 1);
            for id in 0..8 {
                assert_eq!(rob.get(InstrId(id)).is_some(), id <= offset);
            }
            // The buffer remains usable: refill to capacity and drain.
            for id in 100..(100 + 7 - offset) {
                rob.push(entry(id));
            }
            assert!(rob.is_full());
            for id in 0..=offset {
                rob.pop_head(InstrId(id));
            }
        }
    }
}
