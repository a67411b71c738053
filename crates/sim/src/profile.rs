//! Feature-gated pipeline-phase profiling.
//!
//! Built with the `profile` cargo feature, [`prof::scope`] returns an RAII
//! guard that accumulates wall time into a thread-local per-phase table;
//! [`prof::take_report`] renders and resets it.  Without the feature every
//! call is a zero-sized no-op the optimiser erases, so the hot loop pays
//! nothing — the guards stay in the source as documentation of the phase
//! boundaries.
//!
//! `earlyreg-exp point` (built with `-p earlyreg-experiments --features
//! profile`) prints the table after its statistics; without a sampling
//! profiler, this is the supported way to see where the five pipeline
//! phases spend their time.

/// Profiling entry points; see the module docs.
pub mod prof {
    /// A pipeline phase being timed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Phase {
        /// Commit stage (retire, exceptions, store writeback).
        Commit,
        /// Writeback stage (completions, wakeup, branch recovery).
        Writeback,
        /// Issue stage (attention list, functional units, LSQ).
        Issue,
        /// Rename/dispatch stage.
        Rename,
        /// Fetch stage (prediction, icache, replay cursor).
        Fetch,
    }

    /// Number of phases (table size).
    pub const PHASES: usize = 5;

    impl Phase {
        /// Display label.
        pub fn name(self) -> &'static str {
            match self {
                Phase::Commit => "commit",
                Phase::Writeback => "writeback",
                Phase::Issue => "issue",
                Phase::Rename => "rename",
                Phase::Fetch => "fetch",
            }
        }

        /// All phases, in display order.
        pub fn all() -> [Phase; PHASES] {
            [
                Phase::Fetch,
                Phase::Rename,
                Phase::Issue,
                Phase::Writeback,
                Phase::Commit,
            ]
        }
    }

    #[cfg(feature = "profile")]
    mod imp {
        use super::{Phase, PHASES};
        use std::cell::RefCell;
        use std::time::Instant;

        #[derive(Clone, Copy, Default)]
        struct Acc {
            nanos: u64,
            calls: u64,
        }

        thread_local! {
            static TABLE: RefCell<[Acc; PHASES]> = const { RefCell::new([Acc { nanos: 0, calls: 0 }; PHASES]) };
        }

        /// RAII guard: accumulates elapsed wall time on drop.
        pub struct ScopeGuard {
            phase: Phase,
            start: Instant,
        }

        impl Drop for ScopeGuard {
            fn drop(&mut self) {
                let elapsed = self.start.elapsed().as_nanos() as u64;
                TABLE.with(|t| {
                    let acc = &mut t.borrow_mut()[self.phase as usize];
                    acc.nanos += elapsed;
                    acc.calls += 1;
                });
            }
        }

        /// Start timing `phase` until the guard drops.
        #[inline]
        pub fn scope(phase: Phase) -> ScopeGuard {
            ScopeGuard {
                phase,
                start: Instant::now(),
            }
        }

        /// True when profiling is compiled in.
        pub const fn enabled() -> bool {
            true
        }

        /// Render the per-phase table for this thread and reset it.
        pub fn take_report() -> String {
            let table = TABLE.with(|t| std::mem::take(&mut *t.borrow_mut()));
            let total = table.iter().map(|acc| acc.nanos).sum::<u64>().max(1);
            let mut out =
                String::from("phase           time (ms)      share      calls    ns/call\n");
            for phase in Phase::all() {
                let Acc { nanos, calls } = table[phase as usize];
                out.push_str(&format!(
                    "{:<14} {:>10.2} {:>9.1}% {:>10} {:>10}\n",
                    phase.name(),
                    nanos as f64 / 1e6,
                    nanos as f64 / total as f64 * 100.0,
                    calls,
                    nanos.checked_div(calls).unwrap_or(0),
                ));
            }
            out
        }
    }

    #[cfg(not(feature = "profile"))]
    mod imp {
        use super::Phase;

        /// Zero-sized no-op guard (profiling compiled out).
        pub struct ScopeGuard;

        /// No-op without the `profile` feature.
        #[inline(always)]
        pub fn scope(_phase: Phase) -> ScopeGuard {
            ScopeGuard
        }

        /// True when profiling is compiled in.
        pub const fn enabled() -> bool {
            false
        }

        /// Empty report without the `profile` feature.
        pub fn take_report() -> String {
            String::from("(profiling compiled out; rebuild with --features profile)\n")
        }
    }

    pub use imp::{enabled, scope, take_report, ScopeGuard};
}

#[cfg(test)]
mod tests {
    use super::prof;

    #[test]
    fn scope_guard_is_droppable_and_report_renders() {
        {
            let _t = prof::scope(prof::Phase::Fetch);
        }
        let report = prof::take_report();
        assert!(!report.is_empty());
        if prof::enabled() {
            for phase in prof::Phase::all() {
                assert!(report.contains(phase.name()));
            }
        }
    }
}
