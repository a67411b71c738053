//! # earlyreg-workloads
//!
//! The workload suite for *"Hardware Schemes for Early Register Release"*
//! (ICPP 2002), served from a string-keyed [`registry`]:
//!
//! * **Synthetic Table 3 stand-ins** — five integer programs (compress, gcc,
//!   go, li, perl) and five floating-point programs (mgrid, tomcatv, applu,
//!   swim, hydro2d).  The original binaries/inputs (Compaq Alpha,
//!   `-O5`/`-O4`) are not available in this environment, so each program is
//!   replaced by a kernel written against the `earlyreg-isa` mini ISA that
//!   reproduces the *properties the paper's result depends on*:
//!   branch-intensive integer codes with moderate register pressure, and
//!   loop-dominated FP codes with long-latency dependence chains and high FP
//!   register pressure.  These carry `paper: true` and form the default
//!   sweep set.
//! * **Assembled real kernels** — matmul, quicksort, sieve, box_blur and a
//!   hazard-stress pattern, written in the `earlyreg-isa` assembly dialect
//!   (`asm/*.asm`, embedded at compile time) and assembled by
//!   [`earlyreg_isa::assemble`].  Iteration counts reach them through the
//!   assembler's `.arg` convention.
//!
//! Every kernel streams through memory so loads/stores and the LSQ are
//! exercised, and writes its results back to memory so the golden-model
//! comparison covers its output.  Dynamic run lengths are scaled down from
//! the paper's 47M–472M instructions so the full register-size sweep
//! finishes quickly; [`Scale`] controls the per-workload sizing.
//!
//! Adding a workload is registration only — see `docs/WORKLOADS.md`.

pub mod generic;
pub mod registry;
pub mod spec_fp;
pub mod spec_int;
pub mod suite;

pub use generic::{generic_workload, GenericWorkloadConfig};
pub use registry::{WorkloadDescriptor, WorkloadKind};
pub use suite::{suite, workload_by_name, Scale, Workload, WorkloadClass};
