//! The benchmark suite: every registered workload, instantiated at a scale.
//!
//! The static description of each member lives in [`crate::registry`]; this
//! module owns the runtime types — [`WorkloadClass`], the [`Scale`] presets
//! and the instantiated [`Workload`] — and the convenience constructors the
//! rest of the workspace calls.

use crate::registry::{self, WorkloadDescriptor};
use earlyreg_isa::Program;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Integer or floating-point benchmark (the paper reports the two groups
/// separately in every figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Integer code (branch-intensive, moderate register pressure).
    Int,
    /// Floating-point code (loop-dominated, high FP register pressure).
    Fp,
}

impl WorkloadClass {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Int => "integer",
            WorkloadClass::Fp => "floating point",
        }
    }
}

/// How much dynamic work to generate.  The paper ran 47M–472M instructions
/// per program (Table 3); this reproduction scales the runs down so the full
/// sweep of Figure 11 finishes in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// A few thousand dynamic instructions — CI / unit tests.
    Smoke,
    /// Tens of thousands of dynamic instructions — quick benchmark runs.
    Bench,
    /// A few hundred thousand dynamic instructions — the experiment binaries
    /// that regenerate the paper's figures.
    Full,
}

impl Scale {
    /// The dynamic-instruction budget this preset aims each workload at.
    pub fn target_instructions(self) -> u64 {
        match self {
            Scale::Smoke => 4_000,
            Scale::Bench => 40_000,
            Scale::Full => 400_000,
        }
    }
}

/// One instantiated workload: registered metadata plus the generated program.
///
/// The program is reference-counted so that sweeps can hand the same
/// workload to many simulator instances without copying the instruction
/// stream and data image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The registry entry this workload was instantiated from.
    pub spec: &'static WorkloadDescriptor,
    /// The generated program.
    pub program: Arc<Program>,
}

impl Workload {
    /// Canonical registered id.
    pub fn name(&self) -> &'static str {
        self.spec.id
    }

    /// Integer or FP group.
    pub fn class(&self) -> WorkloadClass {
        self.spec.class
    }
}

/// Build every registered workload at the requested scale — the ten Table 3
/// members followed by the assembled kernels.  Callers that want only the
/// paper's default sweep set filter on `w.spec.paper`.
pub fn suite(scale: Scale) -> Vec<Workload> {
    registry::descriptors()
        .iter()
        .map(|d| d.instantiate(scale))
        .collect()
}

/// Build a single named workload (registered id or alias) at the requested
/// scale.
pub fn workload_by_name(name: &str, scale: Scale) -> Option<Workload> {
    registry::by_id(name).map(|d| d.instantiate(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WorkloadKind;
    use earlyreg_isa::Emulator;

    #[test]
    fn suite_covers_every_registered_workload() {
        let suite = suite(Scale::Smoke);
        assert_eq!(suite.len(), registry::descriptors().len());
        assert_eq!(suite.len(), 15);
        let ints = suite
            .iter()
            .filter(|w| w.class() == WorkloadClass::Int)
            .count();
        let fps = suite
            .iter()
            .filter(|w| w.class() == WorkloadClass::Fp)
            .count();
        assert_eq!(ints, 8);
        assert_eq!(fps, 7);
        // The paper's Table 3 split is preserved within the paper subset.
        let paper: Vec<_> = suite.iter().filter(|w| w.spec.paper).collect();
        assert_eq!(paper.len(), 10);
        assert_eq!(
            paper
                .iter()
                .filter(|w| w.class() == WorkloadClass::Int)
                .count(),
            5
        );
    }

    #[test]
    fn suite_names_match_registry_order() {
        let names: Vec<_> = suite(Scale::Smoke).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "compress",
                "gcc",
                "go",
                "li",
                "perl",
                "mgrid",
                "tomcatv",
                "applu",
                "swim",
                "hydro2d",
                "matmul",
                "quicksort",
                "sieve",
                "box_blur",
                "hazard"
            ]
        );
    }

    #[test]
    fn smoke_scale_runs_every_member_quickly() {
        for w in suite(Scale::Smoke) {
            let mut e = Emulator::new(&w.program);
            let r = e.run(200_000);
            assert!(r.halted, "{} did not halt at smoke scale", w.name());
            let floor = match w.spec.kind() {
                // Synthetic kernels have a 16-iteration floor well above the
                // smoke target; asm kernels just need one meaningful rep.
                WorkloadKind::Synthetic => 1_000,
                WorkloadKind::Asm => 20,
            };
            assert!(
                r.instructions >= floor,
                "{} is too short ({} instructions) to be meaningful",
                w.name(),
                r.instructions
            );
        }
    }

    #[test]
    fn scales_are_ordered() {
        for name in ["swim", "matmul"] {
            let smoke = workload_by_name(name, Scale::Smoke).unwrap();
            let full = workload_by_name(name, Scale::Full).unwrap();
            let run = |p: &earlyreg_isa::Program| {
                let mut e = Emulator::new(p);
                e.run(100_000_000).instructions
            };
            assert!(
                run(&full.program) > run(&smoke.program) * 20,
                "{name} full scale is not >20x smoke"
            );
        }
    }

    #[test]
    fn lookup_by_name_and_alias() {
        assert!(workload_by_name("gcc", Scale::Smoke).is_some());
        assert!(workload_by_name("qsort", Scale::Smoke).is_some());
        assert!(workload_by_name("nonexistent", Scale::Smoke).is_none());
    }

    #[test]
    fn paper_metadata_is_recorded() {
        let hydro = registry::by_id("hydro2d").unwrap();
        assert_eq!(hydro.paper_minsts, 472);
        assert_eq!(hydro.class, WorkloadClass::Fp);
        assert!(hydro.paper);
        let matmul = registry::by_id("matmul").unwrap();
        assert!(!matmul.paper);
    }
}
