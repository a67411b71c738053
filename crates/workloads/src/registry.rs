//! String-keyed workload registry — the single authority on workload ids.
//!
//! Mirrors [`earlyreg_core::registry`](https://docs.rs) for release policies:
//! every workload is a [`WorkloadDescriptor`] (id + aliases + class + paper
//! metadata + generator), looked up by string id everywhere — scenario files
//! (`workloads = matmul, swim`), the experiment planner, the serving API and
//! the throughput bench.  Adding a workload is **registration only**: add a generator
//! (a synthetic builder or an embedded `.asm` source) and a `DESCRIPTORS`
//! entry, and every layer — planner, cache, CLI, HTTP listing, conformance
//! corpus, throughput bench — picks it up with zero engine edits.
//!
//! Two generator kinds coexist:
//!
//! * **Synthetic** — the ten SPEC95 Table 3 analogues, built by Rust
//!   generator functions (`spec_int`/`spec_fp`).  These carry `paper: true`
//!   and form the default sweep set, so default figure/table output is
//!   unchanged by registrations.
//! * **Asm** — real kernels assembled from `.asm` sources embedded at
//!   compile time (matmul, quicksort, sieve, box_blur, hazard).  The
//!   iteration count reaches the program through the assembler's `.arg`
//!   convention (argument word 0 = outer reps).
//!
//! Cache identity never flows through this registry: every cached point is
//! keyed by the *fingerprint of the generated program*, so new
//! registrations extend the keyspace without invalidating existing entries
//! (no `CACHE_VERSION` bump — see `earlyreg-experiments/src/cache.rs`).

use crate::suite::{Scale, Workload, WorkloadClass};
use crate::{spec_fp, spec_int};
use earlyreg_isa::{assemble, Program};
use std::sync::Arc;

/// How a workload's program is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Generated by a synthetic builder function.
    Synthetic,
    /// Assembled from an embedded `.asm` source.
    Asm,
}

/// The program generator behind a descriptor.
enum Generator {
    /// `fn(outer_iterations) -> Program`.
    Synthetic(fn(u64) -> Program),
    /// Embedded assembly source; outer reps pass through argument word 0.
    Asm(&'static str),
}

/// Everything the world needs to know about one registered workload.
pub struct WorkloadDescriptor {
    /// Canonical string id (scenario files, CLI, API, cache keys).
    pub id: &'static str,
    /// Accepted alternative spellings.
    pub aliases: &'static [&'static str],
    /// Integer or FP group (figures report the two groups separately).
    pub class: WorkloadClass,
    /// What the kernel models / stresses.
    pub description: &'static str,
    /// Member of the paper's Table 3 suite — the default sweep set.  Default
    /// figure/table output consists of exactly the `paper` workloads, so
    /// registering a new kernel never changes it.
    pub paper: bool,
    /// The SPEC95 input listed in the paper's Table 3 ("-" for kernels the
    /// paper did not run).
    pub paper_input: &'static str,
    /// Dynamic instructions (millions) the paper executed (0 for kernels
    /// the paper did not run).
    pub paper_minsts: u64,
    /// Approximate dynamic instructions per outer iteration/rep, used to
    /// hit the per-scale instruction targets.
    per_iteration_cost: u64,
    generator: Generator,
}

impl std::fmt::Debug for WorkloadDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadDescriptor")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("kind", &self.kind())
            .field("paper", &self.paper)
            .finish_non_exhaustive()
    }
}

impl WorkloadDescriptor {
    /// Synthetic builder or assembled kernel.
    pub fn kind(&self) -> WorkloadKind {
        match self.generator {
            Generator::Synthetic(_) => WorkloadKind::Synthetic,
            Generator::Asm(_) => WorkloadKind::Asm,
        }
    }

    /// Outer iterations needed for about `target_instructions` dynamic
    /// instructions.  Synthetic kernels keep a floor of 16 iterations (their
    /// per-iteration cost is tiny); asm kernels run from a floor of one rep
    /// (a single rep is already thousands of instructions).
    pub fn iterations_for_target(&self, target_instructions: u64) -> u64 {
        let floor = match self.kind() {
            WorkloadKind::Synthetic => 16,
            WorkloadKind::Asm => 1,
        };
        (target_instructions / self.per_iteration_cost).max(floor)
    }

    /// Generate the program for an explicit outer-iteration count.
    ///
    /// # Panics
    ///
    /// Panics if an embedded asm source fails to assemble — registration
    /// bugs, caught by the registry's own tests, not runtime conditions.
    pub fn build_program(&self, iterations: u64) -> Program {
        match &self.generator {
            Generator::Synthetic(build) => build(iterations),
            Generator::Asm(source) => assemble(self.id, source)
                .unwrap_or_else(|e| {
                    panic!("registered kernel '{}' does not assemble: {e}", self.id)
                })
                .with_args(&[iterations as i64])
                .unwrap_or_else(|e| {
                    panic!(
                        "registered kernel '{}' rejects its reps argument: {e}",
                        self.id
                    )
                }),
        }
    }

    /// Instantiate at one of the [`Scale`] presets.
    pub fn instantiate(&'static self, scale: Scale) -> Workload {
        let iterations = self.iterations_for_target(scale.target_instructions());
        Workload {
            spec: self,
            program: Arc::new(self.build_program(iterations)),
        }
    }
}

/// All registered workloads: the ten paper members (Table 3 order) followed
/// by the assembled real kernels.  **Append-only** — ids are cache-key and
/// API surface.
static DESCRIPTORS: [WorkloadDescriptor; 15] = [
    WorkloadDescriptor {
        id: "compress",
        aliases: &[],
        class: WorkloadClass::Int,
        description: "dictionary/hash-table compression loop (hit/miss branches)",
        paper: true,
        paper_input: "40000 e 2231",
        paper_minsts: 170,
        per_iteration_cost: 22,
        generator: Generator::Synthetic(spec_int::compress_like),
    },
    WorkloadDescriptor {
        id: "gcc",
        aliases: &[],
        class: WorkloadClass::Int,
        description: "irregular decision cascade over token values",
        paper: true,
        paper_input: "genrecog.i",
        paper_minsts: 145,
        per_iteration_cost: 30,
        generator: Generator::Synthetic(spec_int::gcc_like),
    },
    WorkloadDescriptor {
        id: "go",
        aliases: &[],
        class: WorkloadClass::Int,
        description: "board scanning with neighbour comparisons",
        paper: true,
        paper_input: "9 9",
        paper_minsts: 146,
        per_iteration_cost: 24,
        generator: Generator::Synthetic(spec_int::go_like),
    },
    WorkloadDescriptor {
        id: "li",
        aliases: &[],
        class: WorkloadClass::Int,
        description: "cons-cell list traversal with tag dispatch",
        paper: true,
        paper_input: "7 queens",
        paper_minsts: 243,
        per_iteration_cost: 110,
        generator: Generator::Synthetic(spec_int::li_like),
    },
    WorkloadDescriptor {
        id: "perl",
        aliases: &[],
        class: WorkloadClass::Int,
        description: "string scanning with rolling hashes and buckets",
        paper: true,
        paper_input: "scrabbl.in",
        paper_minsts: 47,
        per_iteration_cost: 16,
        generator: Generator::Synthetic(spec_int::perl_like),
    },
    WorkloadDescriptor {
        id: "mgrid",
        aliases: &[],
        class: WorkloadClass::Fp,
        description: "3-D stencil relaxation sweep",
        paper: true,
        paper_input: "test (lines 2/3 -> 5 and 18)",
        paper_minsts: 169,
        per_iteration_cost: 48,
        generator: Generator::Synthetic(spec_fp::mgrid_like),
    },
    WorkloadDescriptor {
        id: "tomcatv",
        aliases: &[],
        class: WorkloadClass::Fp,
        description: "mesh-generation smoothing with divides",
        paper: true,
        paper_input: "test",
        paper_minsts: 191,
        per_iteration_cost: 45,
        generator: Generator::Synthetic(spec_fp::tomcatv_like),
    },
    WorkloadDescriptor {
        id: "applu",
        aliases: &[],
        class: WorkloadClass::Fp,
        description: "SSOR-style block solve",
        paper: true,
        paper_input: "train (dt=1.5e-03, nx=ny=nz=13)",
        paper_minsts: 398,
        per_iteration_cost: 40,
        generator: Generator::Synthetic(spec_fp::applu_like),
    },
    WorkloadDescriptor {
        id: "swim",
        aliases: &[],
        class: WorkloadClass::Fp,
        description: "shallow-water finite differences",
        paper: true,
        paper_input: "train",
        paper_minsts: 431,
        per_iteration_cost: 42,
        generator: Generator::Synthetic(spec_fp::swim_like),
    },
    WorkloadDescriptor {
        id: "hydro2d",
        aliases: &[],
        class: WorkloadClass::Fp,
        description: "hydrodynamics flux computation with limiter branches",
        paper: true,
        paper_input: "test (ISTEP=1)",
        paper_minsts: 472,
        per_iteration_cost: 40,
        generator: Generator::Synthetic(spec_fp::hydro2d_like),
    },
    WorkloadDescriptor {
        id: "matmul",
        aliases: &["mm"],
        class: WorkloadClass::Fp,
        description: "8x8 dense matrix multiply (assembled kernel)",
        paper: false,
        paper_input: "-",
        paper_minsts: 0,
        per_iteration_cost: 5_800,
        generator: Generator::Asm(include_str!("../asm/matmul.asm")),
    },
    WorkloadDescriptor {
        id: "quicksort",
        aliases: &["qsort"],
        class: WorkloadClass::Int,
        description: "iterative quicksort over 64 LCG-random keys (assembled kernel)",
        paper: false,
        paper_input: "-",
        paper_minsts: 0,
        per_iteration_cost: 6_100,
        generator: Generator::Asm(include_str!("../asm/quicksort.asm")),
    },
    WorkloadDescriptor {
        id: "sieve",
        aliases: &["primes"],
        class: WorkloadClass::Int,
        description: "prime sieve over [2, 512) with a counting pass (assembled kernel)",
        paper: false,
        paper_input: "-",
        paper_minsts: 0,
        per_iteration_cost: 8_200,
        generator: Generator::Asm(include_str!("../asm/sieve.asm")),
    },
    WorkloadDescriptor {
        id: "box_blur",
        aliases: &["blur"],
        class: WorkloadClass::Fp,
        description: "5-tap box blur over a 1-D grid of 256 samples (assembled kernel)",
        paper: false,
        paper_input: "-",
        paper_minsts: 0,
        per_iteration_cost: 5_550,
        generator: Generator::Asm(include_str!("../asm/box_blur.asm")),
    },
    WorkloadDescriptor {
        id: "hazard",
        aliases: &["hazard_stress"],
        class: WorkloadClass::Int,
        description: "store/load aliasing + redefinition chains + LCG branches (assembled kernel)",
        paper: false,
        paper_input: "-",
        paper_minsts: 0,
        per_iteration_cost: 20,
        generator: Generator::Asm(include_str!("../asm/hazard.asm")),
    },
];

/// All registered descriptors: paper members first (Table 3 order), then
/// the assembled kernels.
pub fn descriptors() -> &'static [WorkloadDescriptor] {
    &DESCRIPTORS
}

/// The registered ids, in order (error messages, CLI/API listings).
pub fn ids() -> Vec<&'static str> {
    DESCRIPTORS.iter().map(|d| d.id).collect()
}

/// The descriptors of the paper's Table 3 suite — the default sweep set.
pub fn paper_descriptors() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    DESCRIPTORS.iter().filter(|d| d.paper)
}

/// Case-insensitive lookup by id or alias.
pub fn by_id(name: &str) -> Option<&'static WorkloadDescriptor> {
    let lower = name.to_ascii_lowercase();
    DESCRIPTORS
        .iter()
        .find(|d| d.id == lower || d.aliases.contains(&lower.as_str()))
}

/// Parse one workload name (id or alias, case-insensitive).  Unknown names
/// fail with a message that enumerates every registered id.
pub fn parse(name: &str) -> Result<&'static WorkloadDescriptor, String> {
    by_id(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (registered: {})",
            ids().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_isa::Emulator;

    #[test]
    fn ids_are_unique_and_parse_round_trips() {
        let ids = ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate workload ids");
        for d in descriptors() {
            assert!(std::ptr::eq(parse(d.id).unwrap(), d));
            for alias in d.aliases {
                assert!(std::ptr::eq(parse(alias).unwrap(), d), "alias {alias}");
            }
        }
        // Case-insensitive.
        assert!(parse("MATMUL").is_ok());
    }

    #[test]
    fn unknown_workload_error_enumerates_registered_ids() {
        let error = parse("bogus").unwrap_err();
        assert!(error.contains("unknown workload 'bogus'"), "{error}");
        for id in ids() {
            assert!(error.contains(id), "error must list '{id}': {error}");
        }
    }

    #[test]
    fn paper_set_is_the_table3_ten() {
        let paper: Vec<&str> = paper_descriptors().map(|d| d.id).collect();
        assert_eq!(
            paper,
            [
                "compress", "gcc", "go", "li", "perl", "mgrid", "tomcatv", "applu", "swim",
                "hydro2d"
            ]
        );
    }

    #[test]
    fn every_asm_kernel_assembles_and_halts() {
        for d in descriptors()
            .iter()
            .filter(|d| d.kind() == WorkloadKind::Asm)
        {
            let program = d.build_program(2);
            program
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", d.id));
            let result = Emulator::new(&program).run(2_000_000);
            assert!(result.halted, "{} did not halt", d.id);
            assert!(
                result.instructions > 2 * d.per_iteration_cost,
                "{} is trivially short ({} instructions)",
                d.id,
                result.instructions
            );
        }
    }

    #[test]
    fn per_iteration_costs_are_calibrated() {
        // The declared cost must be within 25% of the measured marginal cost
        // per rep, so scale targets actually land near their budgets.
        for d in descriptors()
            .iter()
            .filter(|d| d.kind() == WorkloadKind::Asm)
        {
            let run = |reps: u64| {
                let program = d.build_program(reps);
                let result = Emulator::new(&program).run(50_000_000);
                assert!(result.halted, "{} did not halt", d.id);
                result.instructions
            };
            let marginal = (run(9) - run(1)) as f64 / 8.0;
            let declared = d.per_iteration_cost as f64;
            let ratio = marginal / declared;
            assert!(
                (0.75..1.25).contains(&ratio),
                "{}: declared cost {declared} vs measured {marginal:.0} per rep",
                d.id
            );
        }
    }

    #[test]
    fn asm_reps_scale_dynamic_length() {
        let d = parse("matmul").unwrap();
        let short = Emulator::new(&d.build_program(1)).run(50_000_000);
        let long = Emulator::new(&d.build_program(8)).run(50_000_000);
        assert!(long.instructions > short.instructions * 4);
    }
}
