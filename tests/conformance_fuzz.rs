//! Tier-1 entry points of the differential scheme-conformance fuzzer
//! (`crates/conformance`, `docs/FUZZING.md`).
//!
//! Three layers of proof:
//!
//! * property tests drive randomly-parameterised hazard-stress programs
//!   through the full lockstep harness under every registered policy;
//! * checked-in regression fixtures (`tests/fixtures/*.json`) — minimized
//!   reproducers of past failures — replay clean against every policy;
//! * the deliberately-broken release-at-rename mutant is caught by the
//!   harness and shrunk by the minimizer, proving the differential checks
//!   can actually detect unsafe release behaviour (a suite that has never
//!   caught anything proves nothing).

use earlyreg::conformance::{
    check_all_policies, check_with_scheme, compile, load_dir, minimize, plan_blocks, test_support,
    CheckConfig, HazardConfig, ReleaseAtRenameMutant,
};
use earlyreg::core::ReleasePolicy;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Cycle budget for the short programs these tests generate: far above any
/// clean run (a few thousand cycles), far below the CLI default so a
/// deadlocked candidate fails fast.
const TEST_MAX_CYCLES: u64 = 300_000;

fn hazard_strategy() -> impl Strategy<Value = HazardConfig> {
    (any::<u64>(), 1u32..8, 1u32..10, 2u32..8, 0u32..7).prop_map(
        |(seed, iterations, blocks, int_ws, fp_ws)| HazardConfig {
            seed,
            iterations,
            blocks,
            int_ws,
            fp_ws,
        },
    )
}

proptest! {
    #![proptest_config(test_support::cases(16))]

    #[test]
    fn hazard_programs_conform_under_every_policy(
        hazard in hazard_strategy(),
        registers in prop::sample::select(vec![36usize, 40, 48, 64]),
    ) {
        let program = Arc::new(compile(&hazard, &plan_blocks(&hazard)));
        let base = CheckConfig {
            phys_int: registers,
            phys_fp: registers,
            max_cycles: TEST_MAX_CYCLES,
            ..CheckConfig::new(ReleasePolicy::Conventional)
        };
        for (policy, result) in check_all_policies(&base, &program) {
            if let Err(violation) = result {
                prop_assert!(
                    false,
                    "policy {} violated conformance (registers {}, hazard {:?}): {}",
                    policy, registers, hazard, violation
                );
            }
        }
    }

    #[test]
    fn hazard_programs_conform_under_exception_injection(
        hazard in hazard_strategy(),
        interval in 23u64..300,
    ) {
        let program = Arc::new(compile(&hazard, &plan_blocks(&hazard)));
        let base = CheckConfig {
            exception_interval: Some(interval),
            max_cycles: TEST_MAX_CYCLES,
            ..CheckConfig::new(ReleasePolicy::Conventional)
        };
        for (policy, result) in check_all_policies(&base, &program) {
            if let Err(violation) = result {
                prop_assert!(
                    false,
                    "policy {} violated conformance under exceptions every {} \
                     (hazard {:?}): {}",
                    policy, interval, hazard, violation
                );
            }
        }
    }
}

/// The harness must catch the release-at-rename mutant, and the minimizer
/// must shrink the failure to a small reproducer that still fails — the
/// acceptance proof that the differential checks have teeth.
#[test]
fn mutant_is_caught_and_shrunk_to_a_minimal_fixture() {
    let check = CheckConfig {
        max_cycles: TEST_MAX_CYCLES,
        ..CheckConfig::new(ReleasePolicy::Conventional)
    };
    let run_mutant = |config: &HazardConfig, blocks: &[_]| {
        let program = Arc::new(compile(config, blocks));
        check_with_scheme(&check, &program, Box::new(ReleaseAtRenameMutant)).err()
    };

    // Find a failing case (the mutant is so unsafe the first seeds suffice).
    let mut found = None;
    for seed in 0..20u64 {
        let hazard = HazardConfig::from_case_seed(seed);
        let blocks = plan_blocks(&hazard);
        if let Some(violation) = run_mutant(&hazard, &blocks) {
            found = Some((hazard, blocks, violation));
            break;
        }
    }
    let (hazard, blocks, violation) =
        found.expect("the release-at-rename mutant must be caught within 20 random programs");
    let original_blocks = blocks.len();

    // Shrink it.
    let minimized = minimize(hazard, blocks, violation, 200, run_mutant);
    assert!(
        run_mutant(&minimized.config, &minimized.blocks).is_some(),
        "the minimized reproducer must still fail under the mutant"
    );
    assert!(
        minimized.blocks.len() <= original_blocks,
        "minimization must not grow the reproducer"
    );
    assert!(
        minimized.blocks.len() <= 2,
        "the mutant fails on almost anything, so the minimizer should reach \
         <= 2 blocks (got {} from {original_blocks})",
        minimized.blocks.len()
    );
    assert_eq!(minimized.config.iterations, 1);

    // And the real registry schemes pass the very same minimized program.
    let program = Arc::new(compile(&minimized.config, &minimized.blocks));
    for (policy, result) in check_all_policies(&check, &program) {
        result.unwrap_or_else(|v| {
            panic!("registry policy {policy} fails the minimized mutant reproducer: {v}")
        });
    }
}

/// Every checked-in minimized fixture replays clean under every registered
/// policy — the regression corpus distilled from past fuzzer catches.
#[test]
fn checked_in_fixtures_replay_clean_under_every_policy() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let fixtures = load_dir(&dir).expect("fixture directory must load");
    assert!(
        !fixtures.is_empty(),
        "tests/fixtures must contain at least one regression fixture"
    );
    for (path, fixture) in fixtures {
        for (policy, result) in fixture.replay_all() {
            if let Err(violation) = result {
                panic!(
                    "fixture {} ({}) violated under policy {policy}: {violation}",
                    path.display(),
                    fixture.description
                );
            }
        }
    }
}

/// The case seed behind the duplicate-stale-mapping fix (a recycled register
/// named by both a stale and a live speculative mapping; freeing it must
/// flag every matching map entry).  The fuzzer caught it under a scheme that
/// is no longer registered; the program stays pinned under every registered
/// policy.
#[test]
fn oracle_duplicate_stale_mapping_regression() {
    let hazard = HazardConfig::from_case_seed(42);
    let program = Arc::new(compile(&hazard, &plan_blocks(&hazard)));
    let check = CheckConfig {
        max_cycles: TEST_MAX_CYCLES,
        ..CheckConfig::new(ReleasePolicy::Conventional)
    };
    for (policy, result) in check_all_policies(&check, &program) {
        result.unwrap_or_else(|v| panic!("case seed 42 violated under policy {policy}: {v}"));
    }
}
