//! Front-end structures: fetched instructions, the fetch buffer that sits
//! between the fetch and rename stages, and the per-PC fetch precompute
//! table.
//!
//! The fetch *logic* (I-cache access, prediction, redirects) lives in
//! [`pipeline`](crate::pipeline) because it needs the predictor, the memory
//! hierarchy and the program at once; this module holds the data types plus
//! the [`FrontEndTable`]: everything the fetch stage derives from the
//! *static* program — instruction kind, I-cache line index, control-transfer
//! target — computed once when a simulator is built, so the fetch loop does
//! no per-instruction index math.  *Dynamic* front-end state (predictor
//! counters, replay cursor, I-cache tags) lives beside it in the simulator.

use crate::branch::Prediction;
use earlyreg_isa::{Instruction, Opcode, Program};
use std::collections::VecDeque;

/// Per-PC fetch classification: not a control transfer.
pub const FETCH_OTHER: u8 = 0;
/// Per-PC fetch classification: conditional branch (needs a prediction).
pub const FETCH_BRANCH: u8 = 1;
/// Per-PC fetch classification: unconditional jump.
pub const FETCH_JUMP: u8 = 2;
/// Per-PC fetch classification: halt.
pub const FETCH_HALT: u8 = 3;

/// Static per-PC fetch facts (see [`FrontEndTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchInfo {
    /// One of the `FETCH_*` constants.
    pub kind: u8,
    /// I-cache line index of this instruction's byte address.
    pub line: u32,
    /// Control-transfer target (branch/jump), else 0.
    pub target: u32,
}

/// Precomputed per-PC fetch facts for one program under one I-cache line
/// size.  The fetch stage's index math (byte address → line division, opcode
/// classification, target extraction) depends only on the static program,
/// so it is computed once here: one entry per static instruction.
#[derive(Debug, Clone)]
pub struct FrontEndTable {
    info: Vec<FetchInfo>,
}

impl FrontEndTable {
    /// Build the table for `program` with `line_bytes`-byte I-cache lines.
    pub fn build(program: &Program, line_bytes: u64) -> Self {
        const INSTR_BYTES: u64 = 4;
        let info = program
            .instrs
            .iter()
            .enumerate()
            .map(|(pc, instr)| {
                let (kind, target) = match instr.op {
                    Opcode::Branch(_) => (FETCH_BRANCH, instr.imm as u32),
                    Opcode::Jump => (FETCH_JUMP, instr.imm as u32),
                    Opcode::Halt => (FETCH_HALT, 0),
                    _ => (FETCH_OTHER, 0),
                };
                FetchInfo {
                    kind,
                    line: (pc as u64 * INSTR_BYTES / line_bytes) as u32,
                    target,
                }
            })
            .collect();
        FrontEndTable { info }
    }

    /// Facts for the instruction at `pc` (must be in range).
    #[inline]
    pub fn at(&self, pc: usize) -> FetchInfo {
        self.info[pc]
    }

    /// Number of PCs covered.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }
}

/// One instruction delivered by the fetch stage.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInstr {
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub instr: Instruction,
    /// Direction prediction, for conditional branches.
    pub prediction: Option<Prediction>,
    /// Whether the fetch unit treated this instruction as a taken control
    /// transfer (true for predicted-taken branches and for jumps).
    pub predicted_taken: bool,
    /// PC the fetch unit continued at after this instruction.
    pub predicted_next: usize,
    /// Cycle the instruction was fetched.
    pub fetched_at: u64,
    /// Committed position in the replay trace, or
    /// [`earlyreg_isa::NO_TRACE`] for wrong-path / live-front-end fetches.
    pub trace_idx: u32,
}

/// Bounded FIFO between fetch and rename.
#[derive(Debug, Clone)]
pub struct FetchBuffer {
    queue: VecDeque<FetchedInstr>,
    capacity: usize,
}

impl FetchBuffer {
    /// Create an empty buffer holding at most `capacity` instructions.
    pub fn new(capacity: usize) -> Self {
        FetchBuffer {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of instructions waiting to be renamed.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when the fetch stage must stop delivering.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Free slots available this cycle.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Append a fetched instruction.
    pub fn push(&mut self, instr: FetchedInstr) {
        debug_assert!(!self.is_full(), "fetch buffer overflow");
        self.queue.push_back(instr);
    }

    /// Oldest fetched instruction, if any.
    pub fn front(&self) -> Option<&FetchedInstr> {
        self.queue.front()
    }

    /// Remove and return the oldest fetched instruction.
    pub fn pop(&mut self) -> Option<FetchedInstr> {
        self.queue.pop_front()
    }

    /// Drop everything (recovery).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetched(pc: usize) -> FetchedInstr {
        FetchedInstr {
            pc,
            instr: Instruction::nop(),
            prediction: None,
            predicted_taken: false,
            predicted_next: pc + 1,
            fetched_at: 0,
            trace_idx: earlyreg_isa::NO_TRACE,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = FetchBuffer::new(4);
        b.push(fetched(10));
        b.push(fetched(11));
        assert_eq!(b.len(), 2);
        assert_eq!(b.front().unwrap().pc, 10);
        assert_eq!(b.pop().unwrap().pc, 10);
        assert_eq!(b.pop().unwrap().pc, 11);
        assert!(b.pop().is_none());
    }

    #[test]
    fn front_end_table_classifies_and_indexes_lines() {
        use earlyreg_isa::{ArchReg, BranchCond, ProgramBuilder};
        let mut b = ProgramBuilder::new("fe-table");
        let r = ArchReg::int(1);
        let start = b.here();
        b.li(r, 2); // pc 0
        let top = b.here();
        b.addi(r, r, -1); // pc 1
        b.branch(BranchCond::Gt, r, None, top); // pc 2 → pc 1
        b.jump(start); // pc 3 → pc 0
        b.halt(); // pc 4
        let p = b.build().unwrap();

        let t = FrontEndTable::build(&p, 32);
        assert_eq!(t.len(), p.instrs.len());
        assert_eq!(t.at(0).kind, FETCH_OTHER);
        assert_eq!(t.at(2).kind, FETCH_BRANCH);
        assert_eq!(t.at(2).target, 1);
        assert_eq!(t.at(3).kind, FETCH_JUMP);
        assert_eq!(t.at(3).target, 0);
        assert_eq!(t.at(4).kind, FETCH_HALT);
        // 32-byte lines hold 8 four-byte instructions.
        assert_eq!(t.at(0).line, 0);
        assert_eq!(t.at(4).line, 0);
        // 16-byte lines hold 4.
        assert_eq!(FrontEndTable::build(&p, 16).at(4).line, 1);
    }

    #[test]
    fn capacity_accounting() {
        let mut b = FetchBuffer::new(2);
        assert_eq!(b.free_slots(), 2);
        b.push(fetched(0));
        assert_eq!(b.free_slots(), 1);
        b.push(fetched(1));
        assert!(b.is_full());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.free_slots(), 2);
    }
}
