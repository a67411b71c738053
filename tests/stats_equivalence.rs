//! Pinned-statistics equivalence test.
//!
//! The per-cycle hot path of the simulator has been rewritten several times
//! (ring-buffer reorder structure, event-driven wakeup, allocation-free
//! release bookkeeping) under the contract that *simulated behaviour is
//! bit-identical*: every such change must leave `SimStats` untouched.  This
//! test pins the exact statistics of one golden (workload, policy, size)
//! point so any future hot-path change that silently alters simulation
//! behaviour fails loudly here instead of skewing experiment results.
//!
//! If a change *intentionally* alters simulated behaviour (a model fix, a
//! new feature), update the pinned values in the same commit and say so.
//!
//! The second half of this file extends the contract to the **trace-replay
//! front-end** (`Simulator::with_replay`): for every registered policy, on
//! pinned workload points, with exception injection, and over random
//! hazard-stress programs, replay must produce `SimStats` bit-identical to
//! the live front-end.  Replay skips value computation, never timing, so any
//! difference is a bug in the replay path.

use earlyreg::conformance::{compile, plan_blocks, test_support, HazardConfig};
use earlyreg::core::{registry, ReleasePolicy};
use earlyreg::sim::{
    decoded_trace_for, MachineConfig, RunLimits, SimStats, Simulator, TRACE_SLACK,
};
use earlyreg::workloads::{workload_by_name, Scale};
use proptest::prelude::*;
use std::sync::Arc;

fn golden_point(policy: ReleasePolicy) -> SimStats {
    let workload = workload_by_name("swim", Scale::Smoke).expect("swim exists");
    let config = MachineConfig::icpp02(policy, 48, 48);
    let mut sim = Simulator::new(config, workload.program.clone());
    sim.run(RunLimits::instructions(20_000))
}

#[test]
fn golden_swim_extended_48_is_bit_identical() {
    let stats = golden_point(ReleasePolicy::Extended);
    eprintln!("golden stats: {stats:#?}");

    // Core progress counters.
    assert_eq!(stats.cycles, 2876);
    assert_eq!(stats.committed, 3622);
    assert_eq!(stats.fetched, 3689);
    assert_eq!(stats.renamed, 3673);
    assert_eq!(stats.squashed, 51);
    assert!(stats.halted);

    // Instruction mix.
    assert_eq!(stats.committed_branches, 95);
    assert_eq!(stats.committed_loads, 855);
    assert_eq!(stats.committed_stores, 286);
    assert_eq!(stats.mispredicted_branches, 20);
    assert_eq!(stats.exceptions, 0);
    assert_eq!(stats.oracle_violations, 0);

    // Stall accounting.
    assert_eq!(stats.rename_stalls.free_list, 2202);

    // Release accounting (the paper's subject): both classes, every reason.
    assert_eq!(stats.release.int.early_at_lu_commit, 555);
    assert_eq!(stats.release.int.reuses, 61);
    assert_eq!(stats.release.int.branch_confirm_releases, 152);
    assert_eq!(stats.release.fp.early_at_lu_commit, 2169);
    assert_eq!(stats.release.fp.reuses, 227);
    assert_eq!(stats.release.fp.branch_confirm_releases, 76);
    assert_eq!(stats.release.int.conventional_releases, 0);
    assert_eq!(stats.release.fp.conventional_releases, 0);
}

// ---------------------------------------------------------------------------
// Assembled kernels: one pinned golden point per registered asm workload
// ---------------------------------------------------------------------------

/// One assembled kernel's pinned golden point, at the same
/// (extended, icpp02 48+48, Smoke, 20k budget) shape as the swim pins above.
struct AsmGolden {
    id: &'static str,
    cycles: u64,
    committed: u64,
    branches: u64,
    mispredicts: u64,
    loads: u64,
    stores: u64,
    free_list: u64,
    int_early: u64,
    fp_early: u64,
}

/// All five kernels halt naturally inside the budget, so these pin complete
/// executions — assembler, loader and `.arg` handling included.
/// Field order per row: cycles, committed, branches, mispredicts, loads,
/// stores, free-list stall cycles, int/fp early releases.
#[rustfmt::skip]
const ASM_GOLDEN: [AsmGolden; 5] = [
    AsmGolden { id: "matmul",    cycles: 3563, committed: 6520, branches: 649,  mispredicts: 69,  loads: 1089, stores: 192,  free_list: 2481, int_early: 2960, fp_early: 2472 },
    AsmGolden { id: "quicksort", cycles: 3923, committed: 5581, branches: 962,  mispredicts: 303, loads: 791,  stores: 643,  free_list: 1640, int_early: 2143, fp_early: 0 },
    AsmGolden { id: "sieve",     cycles: 5688, committed: 8242, branches: 2248, mispredicts: 307, loads: 533,  stores: 1185, free_list: 3326, int_early: 3513, fp_early: 0 },
    AsmGolden { id: "box_blur",  cycles: 6342, committed: 7095, branches: 761,  mispredicts: 60,  loads: 1513, stores: 760,  free_list: 5601, int_early: 2019, fp_early: 3525 },
    AsmGolden { id: "hazard",    cycles: 4375, committed: 4218, branches: 600,  mispredicts: 487, loads: 301,  stores: 301,  free_list: 843,  int_early: 2191, fp_early: 0 },
];

#[test]
fn golden_asm_kernels_extended_48_are_bit_identical() {
    for AsmGolden {
        id,
        cycles,
        committed,
        branches,
        mispredicts,
        loads,
        stores,
        free_list,
        int_early,
        fp_early,
    } in ASM_GOLDEN
    {
        let workload = workload_by_name(id, Scale::Smoke).expect("registered kernel");
        let config = MachineConfig::icpp02(ReleasePolicy::Extended, 48, 48);
        let mut sim = Simulator::new(config, workload.program.clone());
        let stats = sim.run(RunLimits::instructions(20_000));
        assert!(stats.halted, "{id}: must halt inside the budget");
        assert_eq!(stats.cycles, cycles, "{id}: cycles");
        assert_eq!(stats.committed, committed, "{id}: committed");
        assert_eq!(stats.committed_branches, branches, "{id}: branches");
        assert_eq!(
            stats.mispredicted_branches, mispredicts,
            "{id}: mispredicts"
        );
        assert_eq!(stats.committed_loads, loads, "{id}: loads");
        assert_eq!(stats.committed_stores, stores, "{id}: stores");
        assert_eq!(
            stats.rename_stalls.free_list, free_list,
            "{id}: free-list stalls"
        );
        assert_eq!(
            stats.release.int.early_at_lu_commit, int_early,
            "{id}: int early releases"
        );
        assert_eq!(
            stats.release.fp.early_at_lu_commit, fp_early,
            "{id}: fp early releases"
        );
    }
}

// ---------------------------------------------------------------------------
// Trace replay: bit-identical to the live front-end
// ---------------------------------------------------------------------------

/// Run one (config, program, budget) point through both front-ends and
/// assert bit-identical statistics.
fn assert_replay_equivalent(
    config: MachineConfig,
    program: &Arc<earlyreg::isa::Program>,
    budget: u64,
    label: &str,
) {
    let limits = RunLimits::instructions(budget);

    let mut live = Simulator::new(config, Arc::clone(program));
    let live_stats = live.run(limits);

    let trace = decoded_trace_for(program, budget.saturating_add(TRACE_SLACK));
    let mut replayed = Simulator::with_replay(config, Arc::clone(program), trace);
    assert!(replayed.replaying(), "{label}: replay cursor must be armed");
    let replay_stats = replayed.run(limits);

    assert_eq!(
        replay_stats, live_stats,
        "{label}: trace replay diverged from the live front-end"
    );
}

/// Every registered policy — built-ins and registry additions alike — must
/// replay bit-identically on the pinned swim point.
#[test]
fn replay_matches_live_for_every_registered_policy_on_swim() {
    let workload = workload_by_name("swim", Scale::Smoke).expect("swim exists");
    for policy in registry::registered() {
        let config = MachineConfig::icpp02(policy, 48, 48);
        assert_replay_equivalent(
            config,
            &workload.program,
            20_000,
            &format!("swim/{policy:?}"),
        );
    }
}

/// Same sweep over gcc, whose irregular branch cascade produces a different
/// misprediction/divergence profile than swim's loop nests.
#[test]
fn replay_matches_live_for_every_registered_policy_on_gcc() {
    let workload = workload_by_name("gcc", Scale::Smoke).expect("gcc exists");
    for policy in registry::registered() {
        let config = MachineConfig::icpp02(policy, 48, 48);
        assert_replay_equivalent(
            config,
            &workload.program,
            20_000,
            &format!("gcc/{policy:?}"),
        );
    }
}

/// Assembled kernels exercise decode paths the synthetic generators do not
/// (label-resolved branch targets, `.arg`-patched immediates, negative load
/// offsets); every registered policy must replay them bit-identically too.
#[test]
fn replay_matches_live_for_every_registered_policy_on_asm_kernels() {
    for id in ["matmul", "quicksort", "hazard"] {
        let workload = workload_by_name(id, Scale::Smoke).expect("registered kernel");
        for policy in registry::registered() {
            let config = MachineConfig::icpp02(policy, 48, 48);
            assert_replay_equivalent(
                config,
                &workload.program,
                20_000,
                &format!("{id}/{policy:?}"),
            );
        }
    }
}

/// Exception injection exercises the cursor rewind path: a precise
/// exception squashes the whole window and fetch restarts at the old head's
/// trace position.
#[test]
fn replay_matches_live_under_exception_injection() {
    let workload = workload_by_name("swim", Scale::Smoke).expect("swim exists");
    for policy in [ReleasePolicy::Conventional, ReleasePolicy::Extended] {
        let mut config = MachineConfig::icpp02(policy, 48, 48);
        config.exceptions.interval = Some(500);
        assert_replay_equivalent(
            config,
            &workload.program,
            20_000,
            &format!("swim+exc/{policy:?}"),
        );
    }
}

/// A deliberately tight capture budget forces the cursor off the end of the
/// trace mid-run; the tail must degrade to live execution bit-identically.
#[test]
fn replay_degrades_to_live_past_the_capture_budget() {
    let workload = workload_by_name("swim", Scale::Smoke).expect("swim exists");
    let config = MachineConfig::icpp02(ReleasePolicy::Extended, 48, 48);
    let limits = RunLimits::instructions(20_000);

    let mut live = Simulator::new(config, workload.program.clone());
    let live_stats = live.run(limits);

    // Capture only a fraction of the execution (swim Smoke commits ~3.6k
    // instructions), bypassing the memo cache (which would round up to an
    // earlier, longer capture of the same program).
    let short = Arc::new(earlyreg::isa::DecodedTrace::capture(
        &workload.program,
        1_000,
    ));
    assert!(!short.halted(), "short capture must stop before the end");
    let mut replayed = Simulator::with_replay(config, workload.program.clone(), short);
    let replay_stats = replayed.run(limits);

    assert_eq!(
        replay_stats, live_stats,
        "running past the capture budget must degrade to live execution"
    );
}

proptest! {
    #![proptest_config(test_support::cases(24))]

    /// Random hazard-stress programs (dependency chains, branches, memory
    /// aliasing from the conformance generator) replay bit-identically under
    /// every built-in policy and a small rename file that maximises
    /// stall/squash interleavings.
    #[test]
    fn replay_matches_live_on_random_hazard_programs(
        seed in 0u64..1u64 << 48,
        policy in prop::sample::select(vec![
            ReleasePolicy::Conventional,
            ReleasePolicy::Extended,
        ]),
    ) {
        let hazard = HazardConfig::from_case_seed(seed);
        let blocks = plan_blocks(&hazard);
        let program = Arc::new(compile(&hazard, &blocks));
        let config = MachineConfig::small(policy, 40, 40);
        assert_replay_equivalent(config, &program, 10_000, &format!("hazard seed {seed}"));
    }
}
