//! Simulation statistics.

use crate::branch::PredictorStats;
use crate::cache::HierarchyStats;
use crate::fu::FuStats;
use earlyreg_core::{OccupancyTotals, ReleaseStats};
use serde::{Deserialize, Serialize};

/// Cycles the rename stage was blocked, by reason (counted at most once per
/// cycle per reason, for the instruction at the head of the fetch buffer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameStallCycles {
    /// No free physical register (the stall early release attacks).
    pub free_list: u64,
    /// Reorder structure full.
    pub ros_full: u64,
    /// Load/store queue full.
    pub lsq_full: u64,
    /// Too many unverified branches in flight.
    pub pending_branches: u64,
}

impl RenameStallCycles {
    /// Total stalled cycles.
    pub fn total(&self) -> u64 {
        self.free_list + self.ros_full + self.lsq_full + self.pending_branches
    }
}

/// Everything measured during one simulation run.
///
/// `PartialEq` compares every counter; the experiment point cache uses it to
/// prove that a cache hit is bit-identical to a cold simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (architecturally executed) instructions.
    pub committed: u64,
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions renamed/dispatched (including wrong-path).
    pub renamed: u64,
    /// Instructions squashed by recoveries.
    pub squashed: u64,
    /// Committed conditional branches.
    pub committed_branches: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Resolved conditional branches that were mispredicted.
    pub mispredicted_branches: u64,
    /// Precise exceptions taken (injected).
    pub exceptions: u64,
    /// Commit-time reads of logical registers whose architectural value had
    /// been discarded by early release.  The paper's safety argument
    /// (Section 4.3) requires this to be zero; the tests assert it.
    pub oracle_violations: u64,
    /// Whether the program reached its `Halt` instruction.
    pub halted: bool,
    /// Rename stall breakdown.
    pub rename_stalls: RenameStallCycles,
    /// Branch predictor statistics.
    pub predictor: PredictorStats,
    /// Cache hierarchy statistics.
    pub memory: HierarchyStats,
    /// Functional-unit statistics.
    pub fu: FuStats,
    /// Register release/allocation accounting (from the rename unit).
    pub release: ReleaseStats,
    /// Integer register occupancy (Empty/Ready/Idle) integrals.
    pub occupancy_int: OccupancyTotals,
    /// FP register occupancy integrals.
    pub occupancy_fp: OccupancyTotals,
}

impl SimStats {
    /// Committed instructions per cycle — the paper's primary metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Committed conditional branches per committed instruction.
    pub fn branch_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.committed_branches as f64 / self.committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_committed_over_cycles() {
        let stats = SimStats {
            cycles: 100,
            committed: 250,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_ipc() {
        assert_eq!(SimStats::default().ipc(), 0.0);
        assert_eq!(SimStats::default().branch_fraction(), 0.0);
    }

    #[test]
    fn stall_totals_sum_components() {
        let stalls = RenameStallCycles {
            free_list: 5,
            ros_full: 3,
            lsq_full: 1,
            pending_branches: 2,
        };
        assert_eq!(stalls.total(), 11);
    }
}
