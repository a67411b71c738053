//! Parallel execution of simulation points.
//!
//! Every experiment reduces to a set of *(workload, policy, register-file
//! size)* points, each of which is an independent cycle-level simulation.
//! [`run_parallel`] distributes any list of jobs over a pool of scoped worker
//! threads through a shared atomic work index and writes each result into the
//! slot of its input item, so **output order never depends on thread
//! interleaving**.  [`run_configured_point`] is the one way a point is
//! simulated; the experiment engine in [`crate::engine`] plans, dedups and
//! caches points and runs the misses through it.

use earlyreg_core::ReleasePolicy;
use earlyreg_sim::{
    decoded_trace_for, replay_disabled, MachineConfig, RunLimits, SimStats, Simulator, TRACE_SLACK,
};
use earlyreg_workloads::{Workload, WorkloadClass};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One simulation point.
///
/// The derived `Ord` — (workload, class, policy, int regs, fp regs) in field
/// order — is the canonical deterministic ordering of sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RunPoint {
    /// Workload name (must exist in the suite).
    pub workload: &'static str,
    /// Integer or FP benchmark group.
    pub class: WorkloadClass,
    /// Release policy.
    pub policy: ReleasePolicy,
    /// Integer physical registers.
    pub phys_int: usize,
    /// FP physical registers.
    pub phys_fp: usize,
}

/// Statistics of one simulated point.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// The point that was simulated.
    pub point: RunPoint,
    /// Full simulator statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Simulate a single point under an explicit machine configuration (the
/// experiment engine uses this for scenario overrides and ablation variants).
///
/// Uses the decode-once trace-replay front-end by default: the program's
/// [`DecodedTrace`](earlyreg_isa::DecodedTrace) is captured once (memoized
/// per shared `Arc<Program>`) and every policy/config point replays it,
/// skipping per-instruction decode and value re-computation while keeping
/// `SimStats` bit-identical (pinned by `tests/stats_equivalence.rs`).  Set
/// `EARLYREG_NO_REPLAY=1` to force the live front-end for debugging.
pub fn run_configured_point(
    workload: &Workload,
    point: RunPoint,
    config: MachineConfig,
    max_instructions: u64,
) -> RunResult {
    let mut sim = if replay_disabled() {
        Simulator::new(config, workload.program.clone())
    } else {
        let trace = decoded_trace_for(
            &workload.program,
            max_instructions.saturating_add(TRACE_SLACK),
        );
        Simulator::with_replay(config, workload.program.clone(), trace)
    };
    let stats = sim.run(RunLimits::instructions(max_instructions));
    assert_eq!(
        stats.oracle_violations, 0,
        "{} under {:?} with {}int+{}fp registers read a discarded value",
        point.workload, point.policy, point.phys_int, point.phys_fp
    );
    RunResult { point, stats }
}

/// Run `job` over every item on `threads` scoped worker threads and return
/// the results **in input order**: each worker writes its result into the
/// slot of the item it claimed, so the output is deterministic regardless of
/// how the threads interleave.  With one thread (or one item) the jobs run
/// inline on the calling thread — no spawn, and thread-local state such as
/// the phase profiler keeps accumulating where the caller can read it.
pub fn run_parallel<T, R, F>(threads: usize, items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Nothing to do: don't pay for a thread spawn.  The serving path hits
    // this on every fully-warm request (zero cache misses to simulate).
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().map(job).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next_item = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next_item.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = job(item);
                *slots[index].lock().expect("worker panicked") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panicked")
                .expect("every slot is filled")
        })
        .collect()
}

/// Execution-order permutation for batched scheduling: indices grouped by
/// `key`, **largest group first** (ties broken by first occurrence, so the
/// order is deterministic), stable within each group.
///
/// Grouping same-key items consecutively keeps each workload's shared
/// decoded trace hot while its policy/config points replay it;
/// putting the largest groups first is longest-processing-time-first
/// scheduling, which minimises the idle tail when the groups are distributed
/// over worker threads.
pub fn batch_order<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> Vec<usize> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (index, item) in items.iter().enumerate() {
        let k = key(item);
        match groups.iter_mut().find(|(existing, _)| *existing == k) {
            Some((_, members)) => members.push(index),
            None => groups.push((k, vec![index])),
        }
    }
    groups.sort_by_key(|(_, members)| (usize::MAX - members.len(), members[0]));
    groups
        .into_iter()
        .flat_map(|(_, members)| members)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 3, 8] {
            let results = run_parallel(threads, &items, |&i| i * 2);
            assert_eq!(results, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parallel_handles_empty_input() {
        let results = run_parallel(4, &[] as &[usize], |&i| i);
        assert!(results.is_empty());
    }
}
