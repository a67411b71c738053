//! # earlyreg-isa
//!
//! A small load/store RISC instruction set used by the reproduction of
//! *"Hardware Schemes for Early Register Release"* (Monreal, Viñals,
//! González, Valero — ICPP 2002).
//!
//! The paper evaluates its mechanisms on a SimpleScalar-derived simulator
//! running SPEC95 Alpha binaries.  Neither the Alpha toolchain nor the SPEC95
//! inputs are available here, so this crate provides the substrate the rest of
//! the reproduction is built on:
//!
//! * a register model with the paper's **32 integer + 32 floating-point
//!   logical registers** ([`reg`]),
//! * a compact RISC instruction set whose operations map one-to-one onto the
//!   functional-unit classes of the paper's Table 2 ([`instr`]),
//! * shared **operational semantics** used both by the architectural emulator
//!   and by the cycle-level simulator's execute stage, so the two can never
//!   drift apart ([`semantics`]),
//! * a [`Program`](program::Program) container plus a structured
//!   [`ProgramBuilder`](builder::ProgramBuilder) used by the synthetic SPEC95
//!   analogues in `earlyreg-workloads`,
//! * a text **assembler/loader** ([`assembler`]) — labels, branches,
//!   loads/stores, data directives and an argument-passing convention — so
//!   real kernels ship as `.asm` files and register as workloads,
//! * an **architectural emulator** ([`emulator`]) that serves as the golden
//!   model: the out-of-order simulator's committed state is checked against it
//!   in the integration tests.
//!
//! The ISA is deliberately minimal — the early-release mechanisms only care
//! about *register dataflow* (definitions, uses, redefinitions), *branches*
//! (speculation) and *latency* (register lifetime), all of which this ISA
//! expresses.

pub mod assembler;
pub mod builder;
pub mod decoded;
pub mod emulator;
pub mod instr;
pub mod program;
pub mod reg;
pub mod semantics;

pub use assembler::{assemble, assemble_program, ArgSpec, AsmError, Assembly};
pub use builder::{Label, ProgramBuilder};
pub use decoded::{DecodedTrace, NO_TRACE};
pub use emulator::{ArchState, EmulationResult, Emulator, StepOutcome};
pub use instr::{BranchCond, FuClass, Instruction, Opcode};
pub use program::{Program, ProgramError};
pub use reg::{ArchReg, RegClass, NUM_LOGICAL_FP, NUM_LOGICAL_INT};
