//! Hook-protocol edge cases, exercised for **every** registered release
//! policy (discovered through the registry — a newly registered scheme is
//! pulled into these tests automatically, never by editing a policy list):
//!
//! * a precise exception raised while a branch — and therefore a
//!   scheme-owned checkpoint — is still in flight (`on_exception` must reset
//!   checkpoint state that `on_branch_mispredict`/`on_branch_correct` will
//!   never be called for);
//! * a misprediction squash that empties the whole window behind the branch;
//! * back-to-back mispredicts (nested branches, youngest resolved first).
//!
//! Each scenario runs twice per policy: as a raw rename stream driven
//! directly into the [`RenameUnit`], and through the differential
//! conformance harness on a deterministic hazard program; both paths end in
//! the same invariant checks.

use earlyreg::conformance::{check_program, compile, CheckConfig, HazardBlock, HazardConfig};
use earlyreg::core::{registry, InstrId, ReleasePolicy, RenameConfig, RenameUnit};
use earlyreg::isa::{ArchReg, BranchCond, Instruction, Opcode};
use std::sync::Arc;

const PHYS: usize = 40;

fn def_int(d: usize) -> Instruction {
    Instruction {
        op: Opcode::ILoadImm,
        dst: Some(ArchReg::int(d)),
        src1: None,
        src2: None,
        imm: 1,
    }
}

fn add_int(d: usize, a: usize, b: usize) -> Instruction {
    Instruction {
        op: Opcode::IAdd,
        dst: Some(ArchReg::int(d)),
        src1: Some(ArchReg::int(a)),
        src2: Some(ArchReg::int(b)),
        imm: 0,
    }
}

fn branch(a: usize) -> Instruction {
    Instruction {
        op: Opcode::Branch(BranchCond::Ne),
        dst: None,
        src1: Some(ArchReg::int(a)),
        src2: None,
        imm: 0,
    }
}

fn unit(policy: ReleasePolicy) -> RenameUnit {
    RenameUnit::new(RenameConfig::icpp02(policy, PHYS, PHYS))
}

fn rename(ru: &mut RenameUnit, instr: &Instruction, cycle: u64) -> InstrId {
    ru.rename(instr, cycle)
        .unwrap_or_else(|e| panic!("rename must not stall in these short scenarios: {e:?}"))
        .id
}

fn assert_ok(ru: &RenameUnit, context: &str) {
    ru.check_invariants()
        .unwrap_or_else(|e| panic!("{context}: invariant violated: {e}"));
    ru.check_checkpoint_coherence()
        .unwrap_or_else(|e| panic!("{context}: checkpoint incoherent: {e}"));
}

fn run_harness_scenario(policy: ReleasePolicy, blocks: &[HazardBlock], exceptions: Option<u64>) {
    let hazard = HazardConfig {
        seed: 0x5CE2_14A1,
        iterations: 6,
        blocks: blocks.len() as u32,
        int_ws: 4,
        fp_ws: 2,
    };
    let program = Arc::new(compile(&hazard, blocks));
    let check = CheckConfig {
        exception_interval: exceptions,
        max_cycles: 300_000,
        ..CheckConfig::new(policy)
    };
    if let Err(v) = check_program(&check, &program) {
        panic!("policy {policy} failed the harness scenario: {v}");
    }
}

#[test]
fn exception_with_branch_and_scheme_checkpoint_in_flight() {
    for policy in registry::registered() {
        let mut ru = unit(policy);
        let context = format!("policy {policy}, exception in branch shadow");

        // Window: def r1; branch on r1 (checkpoint!); shadow redefines r1
        // twice (anti-dependence the scheme may track speculatively).
        let d1 = rename(&mut ru, &def_int(1), 1);
        let _b = rename(&mut ru, &branch(1), 2);
        let _s1 = rename(&mut ru, &add_int(1, 1, 2), 3);
        let _s2 = rename(&mut ru, &add_int(1, 1, 3), 4);
        assert_ok(&ru, &context);

        // Precise exception with the branch unresolved: no on_squash, no
        // on_branch_* will ever arrive for it — the scheme must drop its
        // checkpoint (and every conditional release tied to it) on its own.
        ru.recover_exception(5);
        assert_ok(&ru, &context);
        assert_eq!(
            ru.checkpointed_branches().count(),
            0,
            "{context}: engine checkpoints must be gone after the exception"
        );
        let _ = d1;

        // The machine must keep working: a fresh shadowed redefinition
        // sequence renames, resolves and commits cleanly.
        let d2 = rename(&mut ru, &def_int(1), 6);
        let b2 = rename(&mut ru, &branch(1), 7);
        let s3 = rename(&mut ru, &add_int(1, 1, 2), 8);
        ru.resolve_branch_correct(b2, 9);
        for id in [d2, b2, s3] {
            ru.commit(id, 10);
            assert_ok(&ru, &context);
        }
        assert_eq!(ru.release_queue_marks(), 0, "{context}: marks must drain");
    }
    for policy in registry::registered() {
        run_harness_scenario(
            policy,
            &[
                HazardBlock::BranchShadow(1, 3),
                HazardBlock::AntiDepChain(0, 4),
            ],
            Some(31),
        );
    }
}

#[test]
fn mispredict_squash_empties_the_whole_window() {
    for policy in registry::registered() {
        let mut ru = unit(policy);
        let context = format!("policy {policy}, squash to empty");

        // The branch is the oldest in-flight instruction; everything behind
        // it gets squashed, leaving a window of exactly one entry.
        let b = rename(&mut ru, &branch(1), 1);
        let shadow: Vec<InstrId> = (0..6)
            .map(|k| rename(&mut ru, &add_int(1 + k % 3, 1, 2), 2 + k as u64))
            .collect();
        assert_ok(&ru, &context);

        ru.recover_branch_mispredict(b, 10);
        assert_ok(&ru, &context);
        assert_eq!(
            ru.in_flight_entries().count(),
            1,
            "{context}: only the branch itself survives the squash"
        );
        let _ = shadow;

        ru.commit(b, 11);
        assert_ok(&ru, &context);
        assert_eq!(ru.in_flight_entries().count(), 0);
        assert_eq!(ru.release_queue_marks(), 0, "{context}: marks must drain");
    }
    for policy in registry::registered() {
        run_harness_scenario(
            policy,
            &[
                HazardBlock::BranchShadow(0, 4),
                HazardBlock::RotatingDefs(2),
            ],
            None,
        );
    }
}

#[test]
fn back_to_back_mispredicts_restore_nested_checkpoints() {
    for policy in registry::registered() {
        let mut ru = unit(policy);
        let context = format!("policy {policy}, back-to-back mispredicts");

        // Nested speculation: B1 { redefs, B2 { redefs } }.
        let d = rename(&mut ru, &def_int(1), 1);
        let b1 = rename(&mut ru, &branch(1), 2);
        let s1 = rename(&mut ru, &add_int(1, 1, 2), 3);
        let b2 = rename(&mut ru, &branch(1), 4);
        let _s2 = rename(&mut ru, &add_int(1, 1, 3), 5);
        let _s3 = rename(&mut ru, &add_int(2, 1, 1), 6);
        assert_ok(&ru, &context);
        assert_eq!(ru.checkpointed_branches().count(), 2);

        // Youngest first, then its parent — two rollbacks in consecutive
        // cycles, each restoring an older checkpoint of maps *and* scheme
        // state.
        ru.recover_branch_mispredict(b2, 7);
        assert_ok(&ru, &context);
        assert_eq!(ru.checkpointed_branches().count(), 1);
        ru.recover_branch_mispredict(b1, 8);
        assert_ok(&ru, &context);
        assert_eq!(ru.checkpointed_branches().count(), 0);

        // s1 sits behind b1, so the second rollback squashed it too: only
        // the loop-carried def and the older branch remain to commit.
        let survivors: Vec<InstrId> = ru.in_flight_entries().map(|e| e.id).collect();
        assert_eq!(
            survivors,
            vec![d, b1],
            "{context}: survivors after both rollbacks"
        );
        let _ = s1;
        for id in survivors {
            ru.commit(id, 9);
            assert_ok(&ru, &context);
        }
        assert_eq!(ru.release_queue_marks(), 0, "{context}: marks must drain");
    }
    for policy in registry::registered() {
        run_harness_scenario(
            policy,
            &[HazardBlock::BranchStorm(4), HazardBlock::BranchShadow(3, 2)],
            None,
        );
    }
}
