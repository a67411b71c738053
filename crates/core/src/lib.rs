//! # earlyreg-core
//!
//! The contribution of *"Hardware Schemes for Early Register Release"*
//! (Monreal, Viñals, González, Valero — ICPP 2002): register renaming for a
//! merged physical register file with three release policies —
//! **conventional**, **basic early release** and **extended early release** —
//! plus every hardware structure the mechanisms need:
//!
//! * [`free_list`] — the per-class free list of physical registers;
//! * [`map_table`] — the speculative Map Table and the In-Order Map Table;
//! * [`lus_table`] — the Last-Uses Table (Section 3.1, Figure 5);
//! * [`ros`] — the rename-side view of the Reorder Structure with the
//!   `old_pd` / `rel_old` / `rel1`/`rel2`/`reld` fields;
//! * [`release_queue`] — the Release Queue of the extended mechanism
//!   (Section 4, Figures 7–8);
//! * [`regstate`] — exact Empty/Ready/Idle occupancy accounting (Figures 2–3);
//! * [`rename`] — the [`RenameUnit`](rename::RenameUnit) driving all of the
//!   above, including branch-misprediction and precise-exception recovery;
//! * [`scheme`] — the open release-scheme layer: the
//!   [`ReleaseScheme`](scheme::ReleaseScheme) trait every policy implements;
//! * [`schemes`] — the built-in schemes, the paper's three;
//! * [`registry`] — the string-keyed policy registry every layer above
//!   enumerates instead of hard-coding policy lists;
//! * [`stats`] — release/allocation accounting.
//!
//! The crate is deliberately independent of the cycle-level simulator: the
//! `RenameUnit` is driven through a small event API (rename, value written,
//! commit, branch resolved, recover), which is what `earlyreg-sim` calls from
//! its pipeline and what the unit tests and property tests exercise directly.

pub mod free_list;
pub mod id_ring;
pub mod lus_table;
pub mod map_table;
pub mod registry;
pub mod regstate;
pub mod release_queue;
pub mod rename;
pub mod ros;
pub mod scheme;
pub mod schemes;
pub mod stats;
pub mod types;

#[cfg(test)]
mod rename_tests;

pub use free_list::FreeList;
pub use id_ring::{HasInstrId, IdRing};
pub use lus_table::{LusEntry, LusTable};
pub use map_table::{MapTable, MapTablePair};
pub use registry::{PolicyDescriptor, PAPER_POLICIES};
pub use regstate::{OccupancyTotals, OccupancyTracker};
pub use release_queue::{ConfirmOutcome, RelQueLevel, ReleaseQueue};
pub use rename::{CommitOutcome, RecoveryOutcome, ReleaseEvent, RenameUnit, RenamedInstr};
pub use ros::{DstRename, RosBook, RosEntry};
pub use scheme::{DestPlan, DestQuery, ReleaseScheme};
pub use schemes::{BasicScheme, ConventionalScheme, ExtendedScheme};
pub use stats::{ClassReleaseStats, ReleaseStats};
pub use types::{
    InstrId, PhysReg, ReleasePolicy, ReleaseReason, RenameConfig, RenameStall, UseKind,
};
