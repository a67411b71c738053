//! The *extended* early-release mechanism (paper Section 4): the
//! conventional release path is removed entirely.  Redefinitions decoded
//! under pending branches schedule *conditional* releases in the
//! [`ReleaseQueue`] — cancelled by mispredictions, performed at last-use
//! commit / oldest-branch confirmation otherwise.  Everything the basic
//! scheme does (Last-Uses Table, retimed and immediate releases, reuse)
//! carries over through the shared [`LusState`] planning core.

use super::basic::plan_with_lus;
use super::lus::LusState;
use crate::release_queue::ReleaseQueue;
use crate::ros::RosEntry;
use crate::scheme::{DestPlan, DestQuery, ReleaseScheme};
use crate::types::{InstrId, PhysReg, ReleasePolicy, RenameConfig, UseKind};
use earlyreg_isa::{ArchReg, RegClass};

/// The extended early-release scheme.
#[derive(Debug, Clone)]
pub struct ExtendedScheme {
    lus: LusState,
    relque: ReleaseQueue,
}

impl ExtendedScheme {
    /// A scheme in the reset state, with Release Queue bit-vectors sized for
    /// the configured register files.
    pub fn new(config: &RenameConfig) -> Self {
        ExtendedScheme {
            lus: LusState::new(),
            relque: ReleaseQueue::new(config.phys_int, config.phys_fp),
        }
    }
}

impl ReleaseScheme for ExtendedScheme {
    fn policy(&self) -> ReleasePolicy {
        ReleasePolicy::Extended
    }

    fn box_clone(&self) -> Box<dyn ReleaseScheme> {
        Box::new(self.clone())
    }

    fn record_use(&mut self, reg: ArchReg, _phys: PhysReg, id: InstrId, kind: UseKind) {
        self.lus.record_use(reg, id, kind);
    }

    fn plan_dest(&self, query: &DestQuery) -> DestPlan {
        // Where the basic mechanism falls back to the conventional path, the
        // extended one schedules a conditional release instead (Step 2).
        plan_with_lus(
            &self.lus,
            query,
            DestPlan::Conditional { lu: None },
            |lu, kind| DestPlan::Conditional {
                lu: Some((lu, kind)),
            },
        )
    }

    fn schedule_conditional(
        &mut self,
        class: RegClass,
        old_pd: PhysReg,
        lu: Option<(InstrId, UseKind)>,
    ) {
        match lu {
            None => self.relque.mark_committed_lu(class, old_pd),
            Some((lu, kind)) => self.relque.mark_inflight_lu(lu, kind),
        }
    }

    fn on_branch_renamed(&mut self, branch_id: InstrId) {
        self.lus.checkpoint(branch_id);
        self.relque.push_level(branch_id);
    }

    fn on_commit(&mut self, entry: &RosEntry) {
        for &(arch, _) in entry.srcs.iter().flatten() {
            self.lus.mark_committed(arch, entry.id);
        }
        if let Some(d) = entry.dst {
            self.lus.mark_committed(d.arch, entry.id);
        }
        // Step 5: conditional releases tied to this instruction's commit
        // switch from the RwC form to the RwNS form.
        self.relque.on_commit(entry.id, |kind| {
            entry
                .operand_phys(kind)
                .map(|(arch, phys)| (arch.class(), phys))
        });
    }

    fn on_branch_correct(
        &mut self,
        branch_id: InstrId,
        release_now: &mut Vec<(RegClass, PhysReg)>,
        to_rwc0: &mut Vec<(InstrId, u8)>,
    ) {
        self.lus.drop_checkpoint(branch_id);
        self.relque.confirm_into(branch_id, release_now, to_rwc0);
    }

    fn on_branch_mispredict(&mut self, branch_id: InstrId) {
        self.lus.restore(branch_id);
        self.relque.mispredict(branch_id);
    }

    fn on_exception(&mut self) {
        self.lus.reset();
        self.relque.clear();
    }

    fn release_queue_marks(&self) -> usize {
        self.relque.total_marks()
    }

    fn check_invariants(
        &self,
        in_flight_dsts: usize,
        pending_branches: usize,
    ) -> Result<(), String> {
        if self.relque.total_marks() > in_flight_dsts {
            return Err(format!(
                "release queue holds {} marks but only {in_flight_dsts} in-flight instructions \
                 have destinations (paper Section 4.2 bound violated)",
                self.relque.total_marks()
            ));
        }
        if self.relque.depth() != pending_branches {
            return Err(format!(
                "release queue depth ({}) out of sync with pending branches ({pending_branches})",
                self.relque.depth()
            ));
        }
        Ok(())
    }
}
