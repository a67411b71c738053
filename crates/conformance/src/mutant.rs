//! Deliberately-broken release schemes.
//!
//! A conformance suite that has never caught anything proves nothing.  The
//! mutants here are injected through
//! [`Simulator::with_scheme`](earlyreg_sim::Simulator::with_scheme) — they
//! are *not* registry entries, so experiments, caches and serving never see
//! them — and the test suite asserts the harness catches them and that the
//! minimizer shrinks the failure to a small reproducer.

use earlyreg_core::{DestPlan, DestQuery, ReleasePolicy, ReleaseScheme};

/// The canonical unsafe scheme: release the previous version of every
/// redefined register **at rename time** ([`DestPlan::ReleaseNow`]),
/// unconditionally.  This is exactly the naive "the redefinition makes the
/// old version dead" argument the paper spends Section 3 dismantling — it
/// ignores both in-flight consumers (readers of the old version that have
/// not issued yet) and speculation (a squashed redefinition resurrects the
/// old version, whose register has already been handed out).
///
/// The harness catches it through several independent channels, whichever
/// trips first for a given program: the engine's post-recovery invariant
/// check (a restored map names a freed register with no stale flag), a
/// free-list double-release panic, a committed-value divergence from the
/// emulator, or the commit-time oracle check.
#[derive(Debug, Clone, Default)]
pub struct ReleaseAtRenameMutant;

impl ReleaseScheme for ReleaseAtRenameMutant {
    fn policy(&self) -> ReleasePolicy {
        // Reported id only; this scheme never lives in the registry.
        ReleasePolicy::Conventional
    }

    fn box_clone(&self) -> Box<dyn ReleaseScheme> {
        Box::new(self.clone())
    }

    fn plan_dest(&self, _query: &DestQuery) -> DestPlan {
        DestPlan::ReleaseNow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_core::{InstrId, PhysReg};
    use earlyreg_isa::ArchReg;

    #[test]
    fn mutant_always_releases_at_rename() {
        let mutant = ReleaseAtRenameMutant;
        let query = DestQuery {
            dst: ArchReg::int(5),
            old_pd: PhysReg(7),
            own_use: None,
            pending_branches: 3,
            newest_branch: Some(InstrId(9)),
            reuse_on_committed_lu: false,
        };
        assert_eq!(mutant.plan_dest(&query), DestPlan::ReleaseNow);
    }
}
