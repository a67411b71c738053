//! Small helpers for running one smoke-scale simulation point on the
//! Table 2 machine.  The crate's binaries (`bench_sim_throughput`,
//! `bench_serve_chaos`) measure host throughput and serving behaviour.

use earlyreg_core::ReleasePolicy;
use earlyreg_sim::{MachineConfig, RunLimits, SimStats, Simulator};
use earlyreg_workloads::{workload_by_name, Scale, Workload};

/// Default committed-instruction budget for benchmark simulations.
pub const BENCH_INSTRUCTIONS: u64 = 20_000;

/// Fetch a smoke-scale workload by name (panics if the name is unknown —
/// benchmark configuration error).
pub fn smoke_workload(name: &str) -> Workload {
    workload_by_name(name, Scale::Smoke)
        .unwrap_or_else(|| panic!("unknown workload '{name}' in benchmark configuration"))
}

/// Run one simulation point on the Table 2 machine and return its statistics.
pub fn run_sim(workload: &Workload, policy: ReleasePolicy, registers: usize) -> SimStats {
    run_sim_limited(workload, policy, registers, BENCH_INSTRUCTIONS)
}

/// Run one simulation point with an explicit instruction budget.
pub fn run_sim_limited(
    workload: &Workload,
    policy: ReleasePolicy,
    registers: usize,
    max_instructions: u64,
) -> SimStats {
    let config = MachineConfig::icpp02(policy, registers, registers);
    let mut sim = Simulator::new(config, workload.program.clone());
    sim.run(RunLimits::instructions(max_instructions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_points() {
        let w = smoke_workload("perl");
        let stats = run_sim(&w, ReleasePolicy::Extended, 48);
        assert!(stats.committed > 1_000);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = smoke_workload("does-not-exist");
    }
}
