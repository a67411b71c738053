//! # earlyreg-experiments
//!
//! The declarative experiment engine that regenerates every table and figure
//! of *"Hardware Schemes for Early Register Release"* (ICPP 2002):
//!
//! | experiment id | paper item | content |
//! |---------------|------------|---------|
//! | `table1`      | Table 1    | commercial processors with merged register files |
//! | `table3`      | Table 3    | benchmarks and their synthetic substitutes |
//! | `fig03`       | Figure 3   | Empty/Ready/Idle occupancy under conventional renaming |
//! | `sec33`       | Section 3.3 | basic-mechanism speedups at 64/48/40 registers |
//! | `fig09`       | Figure 9   | LUs Table vs register file access time & energy |
//! | `sec44`       | Section 4.4 | energy balance and storage cost |
//! | `fig10`       | Figure 10  | per-benchmark IPC at 48+48 registers |
//! | `fig11`       | Figure 11  | harmonic-mean IPC vs register file size |
//! | `table4`      | Table 4    | register file sizes giving equal IPC |
//! | `ablation`    | —          | design-choice ablation (reuse, speculation depth, Release Queue) |
//!
//! Each module implements the [`engine::Experiment`] trait — an id, a title,
//! a `plan()` of simulation points and a `render()` into a multi-format
//! [`report::Report`] — plus standalone `run(...)`/`render(...)` functions.
//! The [`engine`] collects the union of the requested experiments' points,
//! dedups them, simulates each distinct point exactly once on the parallel
//! [`runner`] and backs the sweep with the content-addressed [`cache`], so
//! overlapping experiments and repeated runs are near-free.  The
//! `earlyreg-exp` binary exposes all of it on the command line.

pub mod ablation;
pub mod cache;
pub mod config;
pub mod context;
pub mod engine;
pub mod fig03;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod sec33;
pub mod sec44;
pub mod table4;

pub use cache::{CacheKey, PointCache, CACHE_VERSION};
pub use config::{ExperimentOptions, Scenario, FIG11_SIZES};
pub use engine::{
    registry, CacheResolver, Experiment, PlanContext, PlannedPoint, PointResolver, ResolveStats,
    ResultSet, RunSummary, WorkloadSet,
};
pub use metrics::{arithmetic_mean, harmonic_mean, interpolate_equal_ipc, speedup};
pub use report::{Artifact, Format, NamedTable, Report};
pub use runner::{RunPoint, RunResult};
