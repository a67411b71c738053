//! A `Scenario` picks the compared policies, end to end through the
//! experiment engine: `policies = extended, conv` drives the Figure 10/11
//! sweeps with **zero engine edits** — the ids flow from the registry
//! through the scenario into the plans — and the figures follow the
//! scenario's order, whose first policy is the speedup baseline.

use earlyreg::experiments::engine::{self, PlanContext};
use earlyreg::experiments::{fig10, fig11, ExperimentOptions, Scenario};
use earlyreg::workloads::Scale;
use earlyreg_core::ReleasePolicy;
use earlyreg_workloads::WorkloadClass;

/// Scenario text as a user would write it — the policy names go through the
/// registry parser, and the order differs from the registry's.
const SCENARIO: &str = "\
    sweep_sizes = 40, 48\n\
    policies = extended, conv\n";

#[test]
fn scenario_policies_pick_the_figure_columns_baseline_and_curves() {
    let scenario = Scenario::parse("two-schemes", SCENARIO).expect("scenario parses");
    let policies = scenario.policies();
    assert_eq!(
        policies,
        [ReleasePolicy::Extended, ReleasePolicy::Conventional]
    );
    let ctx = PlanContext::new(
        ExperimentOptions {
            scale: Scale::Smoke,
            threads: 4,
            max_instructions: 20_000,
        },
        scenario,
    );

    // One shared sweep resolves both figures: the Figure 10 points (48
    // registers) are a subset of the Figure 11 plan, so the dedup layer
    // answers them from the same results.  No unlisted policy is planned.
    let plan11 = fig11::plan(&ctx);
    assert_eq!(plan11.len(), 10 * 2 * 2, "workloads x policies x sizes");
    assert!(plan11.iter().all(|p| policies.contains(&p.point.policy)));
    let results = engine::simulate(&ctx, &plan11);

    // Figure 10 (48 registers): the columns are the scenario's policies in
    // its order, and the first one is the baseline.
    let plan10 = fig10::plan(&ctx);
    let fig10_result = fig10::summarise(&results.collect(&plan10), &policies);
    assert_eq!(fig10_result.policies, ["extended", "conv"]);
    assert_eq!(fig10_result.rows.len(), 10);
    for row in &fig10_result.rows {
        for policy in ["extended", "conv"] {
            let ipc = fig10_result.ipc(&row.workload, policy).unwrap();
            assert!(ipc > 0.0, "{}: no {policy} IPC", row.workload);
        }
        assert_eq!(fig10_result.ipc(&row.workload, "basic"), None);
    }
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        assert_eq!(fig10_result.group_speedup(class, "extended"), 0.0);
    }
    // Extended gains materially on the FP group at 48 registers, so
    // conventional measured against the extended baseline is a slowdown.
    let conv_vs_extended = fig10_result.group_speedup(WorkloadClass::Fp, "conv");
    assert!(
        conv_vs_extended < 0.0,
        "FP conv/extended speedup {conv_vs_extended:.2} should be negative"
    );
    let rendered = fig10::render(&fig10_result);
    assert!(rendered.contains("conv/extended"), "{rendered}");

    // Figure 11 (40 and 48 registers): one harmonic-mean curve per group and
    // compared policy, each sampled at every swept size.
    let sizes = [40usize, 48];
    let points = fig11::summarise(&results.collect(&plan11), &sizes, &policies);
    assert_eq!(points.len(), 2 * 2 * 2, "classes x policies x sizes");
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        for &policy in &policies {
            for &size in &sizes {
                let point = points
                    .iter()
                    .find(|p| p.class == class && p.policy == policy && p.size == size)
                    .unwrap_or_else(|| panic!("missing {class:?}/{policy}/{size} point"));
                assert!(point.hmean_ipc > 0.0, "{class:?}/{policy}/{size}");
            }
        }
    }
}
