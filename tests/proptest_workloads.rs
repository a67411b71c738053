//! Property-based end-to-end tests: randomly parameterised synthetic
//! workloads must (a) build into valid, terminating programs and (b) produce
//! exactly the architectural emulator's results when run through the
//! out-of-order pipeline under every release policy.

use earlyreg::conformance::test_support;
use earlyreg::core::ReleasePolicy;
use earlyreg::isa::Emulator;
use earlyreg::sim::{verify_against_emulator, MachineConfig, RunLimits, Simulator};
use earlyreg::workloads::{generic_workload, GenericWorkloadConfig};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = GenericWorkloadConfig> {
    (
        50u64..400,
        2usize..20,
        0usize..28,
        0usize..6,
        0.0f64..1.0,
        0usize..8,
        0usize..4,
        0usize..3,
        any::<u64>(),
    )
        .prop_map(
            |(iterations, int_ws, fp_ws, branches, entropy, loads, stores, divides, seed)| {
                GenericWorkloadConfig {
                    iterations,
                    int_working_set: int_ws,
                    fp_working_set: fp_ws,
                    branches_per_iteration: branches,
                    branch_entropy: entropy,
                    loads_per_iteration: loads,
                    stores_per_iteration: stores,
                    fp_divides_per_iteration: divides,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(test_support::cases(12))]

    #[test]
    fn random_workloads_build_and_terminate(config in config_strategy()) {
        let program = generic_workload(config);
        program.validate().expect("generated programs are valid");
        let mut emu = Emulator::new(&program);
        let result = emu.run(3_000_000);
        prop_assert!(result.halted, "generated program did not halt");
        prop_assert!(result.instructions > 100);
    }

    #[test]
    fn random_workloads_match_the_golden_model_under_every_policy(
        config in config_strategy(),
        policy_pick in 0usize..64,
        registers in prop::sample::select(vec![36usize, 44, 56, 80]),
    ) {
        // The free-list safety oracle of the release layer, run across every
        // policy in the registry: no scheme may ever free a physical register
        // the ISA emulator still reads later.
        // A violating release either trips the simulator's commit-time
        // discarded-value check (`oracle_violations`), diverges the final
        // architectural state from the golden model, or panics inside the
        // free list (double release) — all of which fail this test.
        let mut config = config;
        config.iterations = config.iterations.min(150);
        let program = generic_workload(config);
        let policies: Vec<ReleasePolicy> = earlyreg::core::registry::registered().collect();
        let policy = policies[policy_pick % policies.len()];
        let machine = MachineConfig::icpp02(policy, registers, registers);
        let mut sim = Simulator::new(machine, program.clone());
        let stats = sim.run(RunLimits {
            max_instructions: 20_000,
            max_cycles: 3_000_000,
        });
        prop_assert!(stats.committed > 100);
        prop_assert_eq!(stats.oracle_violations, 0);
        let outcome = verify_against_emulator(&sim, &program);
        prop_assert!(outcome.is_match(), "divergence under {:?}/{}: {:?}", policy, registers, outcome);
    }

    #[test]
    fn random_workloads_are_deterministic(config in config_strategy()) {
        let mut config = config;
        config.iterations = config.iterations.min(100);
        let a = generic_workload(config);
        let b = generic_workload(config);
        prop_assert_eq!(a.instrs.len(), b.instrs.len());
        prop_assert_eq!(&a.data, &b.data);
        let mut ea = Emulator::new(&a);
        let mut eb = Emulator::new(&b);
        ea.run(1_000_000);
        eb.run(1_000_000);
        prop_assert_eq!(ea.state.fingerprint(), eb.state.fingerprint());
    }
}
