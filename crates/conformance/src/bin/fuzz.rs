//! `earlyreg-fuzz` — differential scheme-conformance fuzzer.
//!
//! Generates random hazard-stress programs and checks every registered
//! release policy against the architectural emulator in lockstep.  On a
//! violation, the failing recipe is minimized and written out as a JSON
//! regression fixture.
//!
//! ```text
//! earlyreg-fuzz [--seed N] [--programs N] [--policies a,b,...]
//!               [--exception-interval N] [--fixture-out DIR]
//!               [--mutant] [--replay PATH] [--asm-corpus [--reps N]]
//! ```
//!
//! `--asm-corpus` checks the second corpus instead of fuzzing: every
//! assembled kernel registered in the workload registry (`--reps` outer
//! iterations each) under every selected policy.  Kernels are not
//! recipe-generated, so violations are reported directly without the
//! minimize/fixture path.
//! `--replay PATH` re-checks one fixture file (or every `*.json` in a
//! directory) against all registered policies instead of fuzzing.
//! `--mutant` injects the release-at-rename mutant instead of the registry
//! scheme — the run *must* find violations (exit 0 iff it did), which makes
//! the fuzzer's own detection power testable from CI.

use earlyreg_conformance::{
    asm_corpus, check_program, check_with_scheme, load_dir, minimize, plan_blocks, CheckConfig,
    Fixture, HazardConfig, ReleaseAtRenameMutant,
};
use earlyreg_core::{registry, ReleasePolicy};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    seed: u64,
    programs: u64,
    policies: Vec<ReleasePolicy>,
    exception_interval: Option<u64>,
    fixture_out: PathBuf,
    mutant: bool,
    replay: Option<PathBuf>,
    asm_corpus: bool,
    reps: u64,
}

const USAGE: &str = "usage: earlyreg-fuzz [--seed N] [--programs N] [--policies a,b,...] \
                     [--exception-interval N] [--fixture-out DIR] [--mutant] [--replay PATH] \
                     [--asm-corpus [--reps N]]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 0xC0FFEE,
        programs: 500,
        policies: registry::registered().collect(),
        exception_interval: None,
        fixture_out: PathBuf::from("."),
        mutant: false,
        replay: None,
        asm_corpus: false,
        reps: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_num(&value("--seed")?)?,
            "--programs" => opts.programs = parse_num(&value("--programs")?)?,
            "--policies" => {
                opts.policies = value("--policies")?
                    .split(',')
                    .map(|id| registry::parse(id.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--exception-interval" => {
                let interval = parse_num(&value("--exception-interval")?)?;
                if interval == 0 {
                    return Err("--exception-interval must be at least 1".into());
                }
                opts.exception_interval = Some(interval);
            }
            "--fixture-out" => opts.fixture_out = PathBuf::from(value("--fixture-out")?),
            "--mutant" => opts.mutant = true,
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            "--asm-corpus" => opts.asm_corpus = true,
            "--reps" => opts.reps = parse_num(&value("--reps")?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if opts.policies.is_empty() {
        return Err("at least one policy is required".into());
    }
    Ok(opts)
}

fn parse_num(text: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .map_err(|_| format!("'{text}' is not a non-negative integer"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("earlyreg-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.replay {
        return replay(path);
    }
    if opts.mutant {
        return fuzz_mutant(&opts);
    }
    if opts.asm_corpus {
        return check_asm_corpus(&opts);
    }
    fuzz(&opts)
}

/// Check the assembled-kernel corpus: every registered asm workload under
/// every selected policy.  These programs are fixed (not recipe-generated),
/// so a violation is reported directly — there is nothing to minimize.
fn check_asm_corpus(opts: &Options) -> ExitCode {
    let corpus = asm_corpus(opts.reps);
    let ids: Vec<&str> = opts.policies.iter().map(|p| p.descriptor().id).collect();
    println!(
        "asm corpus: {} kernels x {} policies [{}] ({} reps, exceptions {:?})",
        corpus.len(),
        opts.policies.len(),
        ids.join(", "),
        opts.reps,
        opts.exception_interval,
    );
    let mut failed = false;
    for (id, program) in &corpus {
        for &policy in &opts.policies {
            let check = base_config(opts, policy);
            match check_program(&check, program) {
                Ok(report) => println!(
                    "  {id:<10} {:<14} ok ({} instructions, {} cycles)",
                    policy.descriptor().id,
                    report.committed,
                    report.cycles
                ),
                Err(violation) => {
                    eprintln!(
                        "  {id:<10} {:<14} VIOLATION: {violation}",
                        policy.descriptor().id
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("asm corpus clean");
        ExitCode::SUCCESS
    }
}

/// Fuzz every selected policy; exit non-zero (after minimizing and writing a
/// fixture) on the first violation.
fn fuzz(opts: &Options) -> ExitCode {
    let ids: Vec<&str> = opts.policies.iter().map(|p| p.descriptor().id).collect();
    println!(
        "fuzzing {} programs x {} policies [{}] (seed {:#x}, exceptions {:?})",
        opts.programs,
        opts.policies.len(),
        ids.join(", "),
        opts.seed,
        opts.exception_interval,
    );
    let mut checks: u64 = 0;
    for case in 0..opts.programs {
        let case_seed = opts
            .seed
            .wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let hazard = HazardConfig::from_case_seed(case_seed);
        let blocks = plan_blocks(&hazard);
        let program = Arc::new(earlyreg_conformance::compile(&hazard, &blocks));
        for &policy in &opts.policies {
            let check = base_config(opts, policy);
            checks += 1;
            if let Err(violation) = check_program(&check, &program) {
                eprintln!(
                    "VIOLATION: policy {id} on case {case} (case seed {case_seed:#x}): {violation}",
                    id = policy.descriptor().id
                );
                let fixture = minimize_to_fixture(
                    &check,
                    hazard,
                    blocks.clone(),
                    violation,
                    format!("fuzz case {case}, policy {}", policy.descriptor().id),
                );
                let path = opts.fixture_out.join(format!(
                    "violation-{}-{case_seed:016x}.json",
                    policy.descriptor().id
                ));
                match fixture.save(&path) {
                    Ok(()) => eprintln!("minimized fixture written to {}", path.display()),
                    Err(e) => eprintln!("could not write fixture: {e}"),
                }
                return ExitCode::FAILURE;
            }
        }
        if (case + 1) % 50 == 0 {
            println!("  {} / {} programs clean", case + 1, opts.programs);
        }
    }
    println!("{checks} checks, zero violations");
    ExitCode::SUCCESS
}

/// Self-test mode: inject the release-at-rename mutant; success means the
/// harness caught it.
fn fuzz_mutant(opts: &Options) -> ExitCode {
    println!(
        "mutant self-test: release-at-rename over up to {} programs (seed {:#x})",
        opts.programs, opts.seed
    );
    for case in 0..opts.programs {
        let case_seed = opts
            .seed
            .wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let hazard = HazardConfig::from_case_seed(case_seed);
        let blocks = plan_blocks(&hazard);
        let program = Arc::new(earlyreg_conformance::compile(&hazard, &blocks));
        let check = base_config(opts, ReleasePolicy::Conventional);
        if let Err(violation) = check_with_scheme(&check, &program, Box::new(ReleaseAtRenameMutant))
        {
            println!("mutant caught on case {case}: {violation}");
            let fixture = minimize_mutant_to_fixture(&check, hazard, blocks, violation);
            println!(
                "minimized to {} blocks, {} iterations: {}",
                fixture.blocks.len(),
                fixture.config.iterations,
                fixture.description
            );
            let path = opts
                .fixture_out
                .join(format!("mutant-release-at-rename-{case_seed:016x}.json"));
            match fixture.save(&path) {
                Ok(()) => println!("minimized fixture written to {}", path.display()),
                Err(e) => eprintln!("could not write fixture: {e}"),
            }
            return ExitCode::SUCCESS;
        }
    }
    eprintln!(
        "mutant SURVIVED {} programs — the harness has lost its teeth",
        opts.programs
    );
    ExitCode::FAILURE
}

fn replay(path: &std::path::Path) -> ExitCode {
    let fixtures = if path.is_dir() {
        match load_dir(path) {
            Ok(list) => list,
            Err(e) => {
                eprintln!("earlyreg-fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match Fixture::load(path) {
            Ok(f) => vec![(path.to_path_buf(), f)],
            Err(e) => {
                eprintln!("earlyreg-fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if fixtures.is_empty() {
        eprintln!("earlyreg-fuzz: no fixtures found in {}", path.display());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for (file, fixture) in &fixtures {
        println!("replaying {} ({})", file.display(), fixture.description);
        for (policy, result) in fixture.replay_all() {
            match result {
                Ok(report) => println!(
                    "  {:<14} ok ({} instructions, {} cycles)",
                    policy.descriptor().id,
                    report.committed,
                    report.cycles
                ),
                Err(violation) => {
                    eprintln!("  {:<14} VIOLATION: {violation}", policy.descriptor().id);
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn base_config(opts: &Options, policy: ReleasePolicy) -> CheckConfig {
    CheckConfig {
        exception_interval: opts.exception_interval,
        ..CheckConfig::new(policy)
    }
}

fn minimize_to_fixture(
    check: &CheckConfig,
    hazard: HazardConfig,
    blocks: Vec<earlyreg_conformance::HazardBlock>,
    violation: earlyreg_conformance::Violation,
    provenance: String,
) -> Fixture {
    let check = *check;
    let min = minimize(hazard, blocks, violation, 400, |cfg, bl| {
        let program = Arc::new(earlyreg_conformance::compile(cfg, bl));
        check_program(&check, &program).err()
    });
    Fixture {
        description: format!("{provenance}: {}", min.violation),
        policy: check.policy.descriptor().id.to_string(),
        phys_int: check.phys_int,
        phys_fp: check.phys_fp,
        exception_interval: check.exception_interval,
        config: min.config,
        blocks: min.blocks,
    }
}

fn minimize_mutant_to_fixture(
    check: &CheckConfig,
    hazard: HazardConfig,
    blocks: Vec<earlyreg_conformance::HazardBlock>,
    violation: earlyreg_conformance::Violation,
) -> Fixture {
    let check = *check;
    let min = minimize(hazard, blocks, violation, 400, |cfg, bl| {
        let program = Arc::new(earlyreg_conformance::compile(cfg, bl));
        check_with_scheme(&check, &program, Box::new(ReleaseAtRenameMutant)).err()
    });
    Fixture {
        description: format!("release-at-rename mutant: {}", min.violation),
        policy: check.policy.descriptor().id.to_string(),
        phys_int: check.phys_int,
        phys_fp: check.phys_fp,
        exception_interval: check.exception_interval,
        config: min.config,
        blocks: min.blocks,
    }
}
