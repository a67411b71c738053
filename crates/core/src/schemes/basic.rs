//! The *basic* early-release mechanism (paper Section 3).
//!
//! A Last-Uses Table pairs every redefinition (NV) with the last use (LU) of
//! the previous version:
//!
//! * **Case 1** — LU in flight, no unverified branch between LU and NV: the
//!   release is retimed to LU's commit via an early-release bit.
//! * LU already committed, no pending branches: release immediately at NV's
//!   decode — or *reuse* the register (Section 3.2) when enabled.
//! * **Case 2** — an unverified branch separates LU from NV (or any branch
//!   is pending while LU is committed): fall back to the conventional
//!   release.
//!
//! The LUs Table is checkpointed per branch and `C` bits are updated in
//! every copy at commit; both live in [`LusState`].

use super::lus::LusState;
use crate::ros::RosEntry;
use crate::scheme::{DestPlan, DestQuery, ReleaseScheme};
use crate::types::{InstrId, PhysReg, ReleasePolicy, UseKind};
use earlyreg_isa::{ArchReg, RegClass};

/// The basic early-release scheme.
#[derive(Debug, Clone)]
pub struct BasicScheme {
    lus: LusState,
}

impl BasicScheme {
    /// A scheme in the reset state.
    pub fn new() -> Self {
        BasicScheme {
            lus: LusState::new(),
        }
    }
}

impl Default for BasicScheme {
    fn default() -> Self {
        Self::new()
    }
}

/// The basic/extended shared planning core: everything except what happens
/// when speculation forbids the early release (the `blocked` cases).
pub(crate) fn plan_with_lus(
    lus: &LusState,
    query: &DestQuery,
    blocked_committed_lu: DestPlan,
    blocked_inflight_lu: impl FnOnce(InstrId, UseKind) -> DestPlan,
) -> DestPlan {
    if let Some(kind) = query.own_use {
        // The instruction reads its own destination: it is itself the last
        // use of the previous version (safe regardless of speculation — a
        // squash kills the release bit together with the redefinition).
        return DestPlan::EarlyOnSelf { kind };
    }
    let lu = lus.get(query.dst);
    match (lu.committed, lu.last_user) {
        // Last use already committed.
        (true, _) => {
            if query.pending_branches == 0 {
                if query.reuse_on_committed_lu {
                    DestPlan::Reuse
                } else {
                    DestPlan::ReleaseNow
                }
            } else {
                blocked_committed_lu
            }
        }
        // Last use still in flight.  Unsafe when an *unverified* branch lies
        // between the last use and this redefinition — or when the last use
        // is itself an unverified branch: if it mispredicts, this
        // redefinition is squashed and the map rolled back, but the
        // surviving last-use entry would still carry the release bit and
        // free a register that is live again.
        (false, Some(lu_id)) => {
            let branch_between = query.newest_branch.is_some_and(|b| b >= lu_id);
            if !branch_between {
                // Case 1: every pending branch (if any) is older than the
                // last use, so a misprediction squashes the last use along
                // with this redefinition and the scheduling dies with it.
                DestPlan::EarlyOnLu {
                    lu: lu_id,
                    kind: lu.kind,
                }
            } else {
                blocked_inflight_lu(lu_id, lu.kind)
            }
        }
        (false, None) => unreachable!("an uncommitted LUs entry always names its last user"),
    }
}

impl ReleaseScheme for BasicScheme {
    fn policy(&self) -> ReleasePolicy {
        ReleasePolicy::Basic
    }

    fn box_clone(&self) -> Box<dyn ReleaseScheme> {
        Box::new(self.clone())
    }

    fn record_use(&mut self, reg: ArchReg, _phys: PhysReg, id: InstrId, kind: UseKind) {
        self.lus.record_use(reg, id, kind);
    }

    fn plan_dest(&self, query: &DestQuery) -> DestPlan {
        // Case 2 in both blocked situations: leave the conventional release
        // in place.
        plan_with_lus(
            &self.lus,
            query,
            DestPlan::ReleaseAtCommit { fallback: true },
            |_, _| DestPlan::ReleaseAtCommit { fallback: true },
        )
    }

    fn on_branch_renamed(&mut self, branch_id: InstrId) {
        self.lus.checkpoint(branch_id);
    }

    fn on_commit(&mut self, entry: &RosEntry) {
        for &(arch, _) in entry.srcs.iter().flatten() {
            self.lus.mark_committed(arch, entry.id);
        }
        if let Some(d) = entry.dst {
            self.lus.mark_committed(d.arch, entry.id);
        }
    }

    fn on_branch_correct(
        &mut self,
        branch_id: InstrId,
        _release_now: &mut Vec<(RegClass, PhysReg)>,
        _to_rwc0: &mut Vec<(InstrId, u8)>,
    ) {
        self.lus.drop_checkpoint(branch_id);
    }

    fn on_branch_mispredict(&mut self, branch_id: InstrId) {
        self.lus.restore(branch_id);
    }

    fn on_exception(&mut self) {
        self.lus.reset();
    }
}
