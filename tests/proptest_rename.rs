//! Property-based tests of the rename/release engine: random instruction
//! streams, random out-of-order branch resolutions, random mispredictions and
//! random precise exceptions must never violate the structural invariants
//! (free-list consistency, map/ownership consistency, Release Queue bounds) —
//! and a double release or use-after-free would panic inside the engine
//! itself.

use earlyreg::conformance::test_support;
use earlyreg::core::{ReleasePolicy, RenameConfig, RenameUnit};
use earlyreg::isa::{ArchReg, BranchCond, Instruction, Opcode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A compact, generatable description of one instruction.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Define an integer register (no sources).
    DefInt(u8),
    /// Define an FP register (no sources).
    DefFp(u8),
    /// Integer add reading two registers and writing one.
    AddInt(u8, u8, u8),
    /// FP multiply reading two registers and writing one.
    MulFp(u8, u8, u8),
    /// Store (reads two integer registers, no destination).
    Store(u8, u8),
    /// Conditional branch on an integer register.
    Branch(u8),
}

impl Op {
    fn to_instruction(self) -> Instruction {
        match self {
            Op::DefInt(d) => Instruction {
                op: Opcode::ILoadImm,
                dst: Some(ArchReg::int(d as usize % 32)),
                src1: None,
                src2: None,
                imm: 1,
            },
            Op::DefFp(d) => Instruction {
                op: Opcode::FLoadImm,
                dst: Some(ArchReg::fp(d as usize % 32)),
                src1: None,
                src2: None,
                imm: 0,
            },
            Op::AddInt(d, a, b) => Instruction {
                op: Opcode::IAdd,
                dst: Some(ArchReg::int(d as usize % 32)),
                src1: Some(ArchReg::int(a as usize % 32)),
                src2: Some(ArchReg::int(b as usize % 32)),
                imm: 0,
            },
            Op::MulFp(d, a, b) => Instruction {
                op: Opcode::FMul,
                dst: Some(ArchReg::fp(d as usize % 32)),
                src1: Some(ArchReg::fp(a as usize % 32)),
                src2: Some(ArchReg::fp(b as usize % 32)),
                imm: 0,
            },
            Op::Store(a, b) => Instruction {
                op: Opcode::StoreInt,
                dst: None,
                src1: Some(ArchReg::int(a as usize % 32)),
                src2: Some(ArchReg::int(b as usize % 32)),
                imm: 0,
            },
            Op::Branch(a) => Instruction {
                op: Opcode::Branch(BranchCond::Ne),
                dst: None,
                src1: Some(ArchReg::int(a as usize % 32)),
                src2: None,
                imm: 0,
            },
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::DefInt),
        any::<u8>().prop_map(Op::DefFp),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::AddInt(d, a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, a, b)| Op::MulFp(d, a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Store(a, b)),
        any::<u8>().prop_map(Op::Branch),
    ]
}

/// Drive a rename unit through the instruction stream with a random
/// interleaving of renames, commits, branch resolutions (correct or
/// mispredicted) and occasional exceptions, checking the invariants after
/// every architectural event.
fn drive(policy: ReleasePolicy, phys: usize, ops: &[Op], seed: u64, exception_rate: f64) {
    let mut ru = RenameUnit::new(RenameConfig::icpp02(policy, phys, phys));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut in_flight: Vec<(earlyreg::core::InstrId, bool, bool)> = Vec::new(); // (id, is_branch, resolved)
    let mut next_op = 0usize;
    let mut cycle = 0u64;

    while next_op < ops.len() || !in_flight.is_empty() {
        cycle += 1;
        let action = rng.gen_range(0..100);

        // Rename a few instructions.
        if action < 45 && next_op < ops.len() && in_flight.len() < 100 {
            for _ in 0..rng.gen_range(1..=4usize) {
                if next_op >= ops.len() {
                    break;
                }
                let instr = ops[next_op].to_instruction();
                match ru.rename(&instr, cycle) {
                    Ok(renamed) => {
                        in_flight.push((renamed.id, instr.op.is_cond_branch(), false));
                        next_op += 1;
                    }
                    Err(_) => break, // stall: free registers by committing below
                }
            }
        } else if action < 70 {
            // Resolve a random unresolved branch (out of order), sometimes as
            // a misprediction.
            let unresolved: Vec<usize> = in_flight
                .iter()
                .enumerate()
                .filter(|(_, (_, is_branch, resolved))| *is_branch && !resolved)
                .map(|(i, _)| i)
                .collect();
            if let Some(&pick) = unresolved.get(
                rng.gen_range(0..unresolved.len().max(1))
                    .min(unresolved.len().saturating_sub(1)),
            ) {
                let (id, _, _) = in_flight[pick];
                if rng.gen_bool(0.3) {
                    ru.recover_branch_mispredict(id, cycle);
                    // Everything younger is gone.
                    in_flight.retain(|&(other, _, _)| other <= id);
                    next_op = ops.len().min(next_op); // squashed fetches are simply not replayed
                } else {
                    ru.resolve_branch_correct(id, cycle);
                }
                if let Some(entry) = in_flight.iter_mut().find(|(other, _, _)| *other == id) {
                    entry.2 = true;
                }
            }
        } else if action < 95 {
            // Commit from the head; branches must be resolved first.
            for _ in 0..rng.gen_range(1..=4usize) {
                let Some(&(id, is_branch, resolved)) = in_flight.first() else {
                    break;
                };
                if is_branch && !resolved {
                    ru.resolve_branch_correct(id, cycle);
                }
                ru.commit(id, cycle);
                in_flight.remove(0);
            }
        } else if rng.gen_bool(exception_rate) && !in_flight.is_empty() {
            ru.recover_exception(cycle);
            in_flight.clear();
        }

        ru.check_invariants()
            .unwrap_or_else(|e| panic!("invariant violated at cycle {cycle}: {e}"));
        if cycle > 50_000 {
            panic!("driver failed to make progress");
        }
    }
    ru.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(test_support::cases(24))]

    #[test]
    fn extended_mechanism_invariants_hold_under_random_streams(
        ops in prop::collection::vec(op_strategy(), 20..200),
        seed in any::<u64>(),
    ) {
        drive(ReleasePolicy::Extended, 44, &ops, seed, 0.3);
    }

    #[test]
    fn basic_mechanism_invariants_hold_under_random_streams(
        ops in prop::collection::vec(op_strategy(), 20..200),
        seed in any::<u64>(),
    ) {
        drive(ReleasePolicy::Basic, 44, &ops, seed, 0.3);
    }

    #[test]
    fn conventional_invariants_hold_under_random_streams(
        ops in prop::collection::vec(op_strategy(), 20..150),
        seed in any::<u64>(),
    ) {
        drive(ReleasePolicy::Conventional, 40, &ops, seed, 0.2);
    }

    #[test]
    fn tiny_register_files_stall_but_never_corrupt(
        ops in prop::collection::vec(op_strategy(), 20..120),
        seed in any::<u64>(),
    ) {
        // 34 registers per class = 32 architectural + 2 rename buffers.
        drive(ReleasePolicy::Extended, 34, &ops, seed, 0.4);
    }
}
