//! # earlyreg-rfmodel
//!
//! Analytic multiported-SRAM delay / energy / storage model used to reproduce
//! Figure 9 and the Section 4.4 discussion of *"Hardware Schemes for Early
//! Register Release"* (ICPP 2002).
//!
//! The paper uses the register-file model of Rixner et al. (HPCA-6, 2000) for
//! a 0.18 µm technology.  The original layout inputs are not available, so
//! this crate implements a standard analytic model — wordline/bitline RC
//! delay plus per-port cell growth, and bitline switching energy — and
//! **calibrates** its coefficients to the anchor points the paper reports:
//!
//! * the Last-Uses Table (32 entries, 56 ports, 9-bit words) takes **0.98 ns**
//!   and **193.2 pJ**;
//! * the LUs Table delay is ≈ 26 % below the smallest (40-entry) integer
//!   register file;
//! * moving from a 64int + 79fp configuration to 56int + 72fp plus two LUs
//!   Tables is energy-neutral (≈ 3.85 nJ either way, Section 4.4);
//! * the extended mechanism costs ≈ 1.22 KB of storage on an Alpha-21264-like
//!   machine plus ≈ 128 B for the two LUs Tables.
//!
//! Only the *relative* scaling with registers and ports matters for the
//! paper's argument; the calibrated model reproduces those relations
//! (`earlyreg-exp run fig09 sec44` prints the full comparison).

pub mod delay;
pub mod energy;
pub mod geometry;
pub mod storage;

pub use delay::access_time_ns;
pub use energy::{access_energy_pj, energy_balance, EnergyBalance};
pub use geometry::RfGeometry;
pub use storage::{extended_mechanism_storage, lus_table_storage, StorageEstimate};
