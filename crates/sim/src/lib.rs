//! # earlyreg-sim
//!
//! Cycle-level out-of-order simulator substrate for the reproduction of
//! *"Hardware Schemes for Early Register Release"* (ICPP 2002).
//!
//! The paper evaluates its mechanisms on a modified SimpleScalar v3.0
//! `sim-outorder`; this crate provides an equivalent machine model built from
//! scratch in Rust:
//!
//! * [`config`] — the Table 2 machine description;
//! * [`branch`] — 18-bit gshare with speculative history and repair;
//! * [`cache`] — split 32 KB L1s, unified 1 MB L2, 50-cycle memory;
//! * [`fu`] — the Table 2 functional-unit mix;
//! * [`lsq`] — 64-entry load/store queue with forwarding and conservative
//!   load scheduling;
//! * [`rob`], [`frontend`] — pipeline-side reorder structure, fetch buffer
//!   and the shared per-program fetch precompute table;
//! * [`pipeline`] — the 8-wide fetch/rename/issue/commit cycle loop, driving
//!   [`earlyreg_core::RenameUnit`] for renaming and register release;
//! * [`replay`] — decode-once trace replay: memoized [`DecodedTrace`]
//!   capture and the fetch-side cursor that lets sweeps skip re-decode and
//!   re-emulation while keeping statistics bit-identical;
//! * [`profile`] — feature-gated per-phase scope timers for the hot loop;
//! * [`verify`] — golden-model comparison against the architectural emulator;
//! * [`stats`] — IPC, occupancy, predictor/cache/release statistics.
//!
//! [`DecodedTrace`]: earlyreg_isa::DecodedTrace

pub mod branch;
pub mod cache;
pub mod config;
pub mod frontend;
pub mod fu;
pub mod lsq;
pub mod pipeline;
pub mod profile;
pub mod replay;
pub mod rob;
pub mod stats;
pub mod verify;

pub use branch::{GsharePredictor, Prediction, PredictorStats};
pub use cache::{Cache, CacheStats, HierarchyStats, MemoryHierarchy};
pub use config::{CacheConfig, ExceptionConfig, MachineConfig, PredictorConfig};
pub use frontend::{FetchInfo, FrontEndTable};
pub use fu::{FuPool, FuStats};
pub use lsq::{ForwardResult, LoadStoreQueue};
pub use pipeline::{RunLimits, Simulator};
pub use replay::{decoded_trace_for, replay_disabled, ReplayCursor, TRACE_SLACK};
pub use rob::{InstrState, ReorderBuffer, RobEntry};
pub use stats::{RenameStallCycles, SimStats};
pub use verify::{verify_against_emulator, VerifyOutcome};
