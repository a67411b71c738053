//! The open release-scheme layer.
//!
//! Everything policy-specific about register release lives behind the
//! [`ReleaseScheme`] trait: rename-time last-use tracking, the decision of
//! how a redefinition's previous version is released ([`DestPlan`]),
//! checkpoint capture/restore of scheme state across branches, and the
//! commit / branch-resolution release events.  The
//! [`RenameUnit`](crate::rename::RenameUnit) owns the policy-*independent*
//! machinery — free lists, map tables, the reorder-structure book, branch
//! checkpoints of the map, occupancy and release statistics — and drives the
//! scheme through the hooks below.  Adding a release scheme therefore means
//! implementing this trait in one file and registering a descriptor in
//! [`crate::registry`]; no engine, simulator, experiment or serving code
//! changes.  See `docs/POLICIES.md` for the full contract.
//!
//! ## Hook protocol (one rename-unit event → scheme hooks, in order)
//!
//! * `rename` — [`ReleaseScheme::plan_dest`] (pure, may be called again by
//!   `can_rename`), then [`ReleaseScheme::record_use`] for each source
//!   operand, then plan execution (the engine calls
//!   [`ReleaseScheme::schedule_conditional`] for [`DestPlan::Conditional`]),
//!   then `record_use` for the destination, then — for conditional branches —
//!   [`ReleaseScheme::on_branch_renamed`] after the engine captured its own
//!   map checkpoint.
//! * `commit` — [`ReleaseScheme::on_commit`] updates scheme state (Last-Uses
//!   `C` bits, Release Queue RwC→RwNS moves); the engine then performs the
//!   committing entry's early-release bits and conventional release.
//! * `branch verified correct` — [`ReleaseScheme::on_branch_correct`]; the
//!   engine frees the returned `release_now` set (reason `BranchConfirm`) and
//!   ORs the returned `to_rwc0` masks into the early-release bits of the
//!   named in-flight entries.
//! * `branch mispredicted` — [`ReleaseScheme::on_squash`] with the squashed
//!   entries (youngest first), then [`ReleaseScheme::on_branch_mispredict`]
//!   after the engine restored its map checkpoint.
//! * `precise exception` — [`ReleaseScheme::on_exception`] only (no
//!   `on_squash`): every in-flight instruction is gone and the scheme must
//!   reset all of its speculative state.

use crate::ros::RosEntry;
use crate::types::{InstrId, PhysReg, ReleasePolicy, UseKind};
use earlyreg_isa::{ArchReg, RegClass};
use std::fmt;

/// How the destination of a redefinition will be handled — the scheme's
/// answer to [`ReleaseScheme::plan_dest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestPlan {
    /// Allocate a new register; release the previous version at this
    /// instruction's commit (the conventional `rel_old = 1` path).  `fallback`
    /// marks schemes that *wanted* an early release but could not prove it
    /// safe (counted in `fallback_to_conventional`).
    ReleaseAtCommit {
        /// Count this as a fallback in the release statistics.
        fallback: bool,
    },
    /// Allocate a new register and leave the previous version entirely
    /// alone.  The engine plans this itself for a stale post-exception
    /// mapping (already released); a scheme may return it for a previous
    /// version it releases through another path.
    AllocOnly,
    /// The instruction reads its own destination register: it is the last
    /// use of the previous version, released at its own commit through the
    /// early-release bit `kind`.
    EarlyOnSelf {
        /// Which of this instruction's operand slots reads the previous
        /// version.
        kind: UseKind,
    },
    /// Allocate a new register; set the early-release bit `kind` on the
    /// in-flight last-use instruction `lu` (released at `lu`'s commit).
    EarlyOnLu {
        /// The in-flight last use of the previous version.
        lu: InstrId,
        /// Its operand slot that reads the previous version.
        kind: UseKind,
    },
    /// Release the previous version immediately, then allocate (frees a
    /// register *before* drawing from the free list, so it never stalls).
    ReleaseNow,
    /// Reuse the previous version's register for the new version (paper
    /// Section 3.2); no allocation, no release.
    Reuse,
    /// Schedule a conditional release with the scheme
    /// ([`ReleaseScheme::schedule_conditional`] is called with `lu`):
    /// `lu = None` when the last use has already committed (`RwNS` form),
    /// `Some((lu, kind))` while it is still in flight (`RwC` form).
    Conditional {
        /// The in-flight last use, if it has not committed yet.
        lu: Option<(InstrId, UseKind)>,
    },
}

impl DestPlan {
    /// Does executing this plan draw a register from the free list?
    #[inline]
    pub fn needs_allocation(&self) -> bool {
        !matches!(self, DestPlan::Reuse)
    }

    /// Does executing this plan return a register to the free list *before*
    /// allocating (so an empty free list is not a stall)?
    #[inline]
    pub fn frees_before_allocating(&self) -> bool {
        matches!(self, DestPlan::ReleaseNow)
    }
}

/// Everything the engine knows about a redefinition when it asks the scheme
/// to plan the destination.  Built before any side effect of the rename, so
/// [`ReleaseScheme::plan_dest`] must be pure (it is also used by the
/// `can_rename` pre-check).
#[derive(Debug, Clone, Copy)]
pub struct DestQuery {
    /// The logical destination register being redefined.
    pub dst: ArchReg,
    /// The physical register of the previous version (current speculative
    /// mapping of `dst`).
    pub old_pd: PhysReg,
    /// `Some(kind)` when the instruction reads its own destination register
    /// (slot `Src2` wins when both sources name it, matching the Last-Uses
    /// Table's record order), making it the last use of the previous version.
    pub own_use: Option<UseKind>,
    /// Number of branches currently pending verification.
    pub pending_branches: usize,
    /// The youngest pending branch, if any (ids are program-ordered, so
    /// "some pending branch is younger than X" is `newest_branch >= X`).
    pub newest_branch: Option<InstrId>,
    /// The engine's Section 3.2 register-reuse knob.
    pub reuse_on_committed_lu: bool,
}

/// A pluggable register release scheme (see the module docs for the hook
/// protocol and `docs/POLICIES.md` for the full contract).
pub trait ReleaseScheme: fmt::Debug + Send {
    /// The registry handle of this scheme.
    fn policy(&self) -> ReleasePolicy;

    /// Clone into a fresh box ([`RenameUnit`](crate::rename::RenameUnit) is
    /// `Clone`).
    fn box_clone(&self) -> Box<dyn ReleaseScheme>;

    /// Rename-time use tracking: instruction `id` uses logical register
    /// `reg` (currently mapped to `phys`) in operand slot `kind`.  Called
    /// for every source operand *after* [`ReleaseScheme::plan_dest`] ran but
    /// before the plan executes, and for the destination (with the *new*
    /// physical register) after the map was redirected.  Because the plan is
    /// computed first, an instruction's own source recordings are **not**
    /// visible to its `plan_dest` — the engine signals the
    /// reads-own-destination case through [`DestQuery::own_use`] instead.
    fn record_use(&mut self, _reg: ArchReg, _phys: PhysReg, _id: InstrId, _kind: UseKind) {}

    /// Decide how the previous version of a redefined register is handled.
    /// Must be pure: the engine calls it both from `can_rename` (no side
    /// effects follow) and from `rename` (the returned plan is executed).
    fn plan_dest(&self, query: &DestQuery) -> DestPlan;

    /// Execute the scheme side of [`DestPlan::Conditional`]: record a
    /// conditional release of `(class, old_pd)` tied to the pending-branch
    /// stack, in `RwNS` form (`lu = None`) or `RwC` form.
    fn schedule_conditional(
        &mut self,
        _class: RegClass,
        _old_pd: PhysReg,
        _lu: Option<(InstrId, UseKind)>,
    ) {
        unreachable!("scheme returned DestPlan::Conditional without schedule_conditional support")
    }

    /// A conditional branch was renamed: capture whatever speculative scheme
    /// state a misprediction of `branch_id` must restore.
    fn on_branch_renamed(&mut self, _branch_id: InstrId) {}

    /// The oldest in-flight instruction is committing: update the scheme
    /// state its commit settles.  Releases happen through the entry's
    /// early-release bits and `rel_old`, which the engine performs after
    /// this hook.
    fn on_commit(&mut self, _entry: &RosEntry) {}

    /// Branch `branch_id` was verified correct: drop its scheme checkpoint.
    /// Append registers to release right now to `release_now` and
    /// `(last-use id, rel-bit mask)` pairs to merge into the in-flight
    /// early-release bits to `to_rwc0` (the extended mechanism's Steps 4/6).
    fn on_branch_correct(
        &mut self,
        _branch_id: InstrId,
        _release_now: &mut Vec<(RegClass, PhysReg)>,
        _to_rwc0: &mut Vec<(InstrId, u8)>,
    ) {
    }

    /// Branch misprediction, part 1: these renamed-but-uncommitted entries
    /// (youngest first) were just squashed.
    fn on_squash(&mut self, _squashed: &[RosEntry]) {}

    /// Branch misprediction, part 2: restore the speculative scheme state
    /// captured when `branch_id` was renamed (checkpoints of younger branches
    /// are dead).
    fn on_branch_mispredict(&mut self, _branch_id: InstrId) {}

    /// Precise exception: every in-flight instruction was squashed; reset
    /// all speculative scheme state.  (`on_squash` is *not* called.)
    fn on_exception(&mut self) {}

    /// Conditional releases currently pending in the scheme (the extended
    /// mechanism's Release Queue marks; 0 for schemes without one).
    fn release_queue_marks(&self) -> usize {
        0
    }

    /// Scheme-side structural invariants, checked by tests and property
    /// tests after every architectural event.
    fn check_invariants(
        &self,
        _in_flight_dsts: usize,
        _pending_branches: usize,
    ) -> Result<(), String> {
        Ok(())
    }
}

impl Clone for Box<dyn ReleaseScheme> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}
