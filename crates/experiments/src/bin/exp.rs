//! `earlyreg-exp` — the one CLI over the declarative experiment engine.
//!
//! ```text
//! earlyreg-exp list
//! earlyreg-exp run <ids...|all> [--format text|json|csv] [--out DIR]
//!                  [--scale smoke|bench|full] [--jobs N] [--max-instructions N]
//!                  [--scenario FILE] [--cache DIR | --no-cache]
//! earlyreg-exp point --workload NAME [--policy ID] [--int-regs N] [--fp-regs N]
//!                    [--scale smoke|bench|full] [--max-instructions N]
//!                    [--exception-interval N] [--verify]
//! ```
//!
//! `run` plans the union of the selected experiments' simulation points,
//! dedups them across experiments, answers what it can from the on-disk
//! point cache, simulates the rest in parallel (each distinct point exactly
//! once) and renders every report through the selected backend.  The final
//! summary line reports the planned / unique / cache-hit / simulated counts.
//!
//! `point` is the per-point inspection command: it plans one point on the
//! Table 2 machine (its header names the point's digest, the same name the
//! point cache and serve's `X-Point-Digest` use), simulates it live without
//! touching the cache, and prints the full statistics block — register
//! occupancy (Empty / Ready / Idle, the paper's Figures 2–3) and release
//! counts per class.  `--verify` checks the committed state against the
//! architectural emulator; built with `--features profile`, it also prints
//! the per-phase timing table (fetch/rename/issue/writeback/commit).

use earlyreg_core::ReleasePolicy;
use earlyreg_experiments::engine::{self, PlanContext};
use earlyreg_experiments::{ExperimentOptions, Format, PointCache, RunPoint, Scenario};
use earlyreg_sim::profile::prof;
use earlyreg_sim::{verify_against_emulator, RunLimits, SimStats, Simulator};
use std::path::PathBuf;
use std::process::exit;
use std::slice::Iter;

const USAGE: &str = "\
usage: earlyreg-exp <command>
  list                          list registered experiments, policies and workloads
  run <ids...|all>              run experiments as one shared sweep
      --format text|json|csv    report backend (default text)
      --out DIR                 write reports under DIR (json/csv default out/)
      --scale smoke|bench|full  workload scale (default full)
      --jobs N                  worker threads (default: one per CPU)
      --max-instructions N      committed-instruction budget per point
      --scenario FILE           machine/sweep overrides (key = value lines)
      --cache DIR               point cache directory (default target/exp-cache)
      --no-cache                disable the on-disk point cache
  point --workload NAME         simulate one point live and print its statistics
      --policy ID               release policy (default extended)
      --int-regs N              integer physical registers (default 64)
      --fp-regs N               FP physical registers (default 64)
      --scale smoke|bench|full  workload scale (default full)
      --max-instructions N      committed-instruction budget
      --exception-interval N    inject a precise exception every N commits
      --verify                  check the committed state against the emulator
";

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!();
    eprintln!("{USAGE}");
    exit(2);
}

/// The parsed value, or exit 2 with the parser's message.
fn ok<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|message| fail(&message))
}

/// The value following `flag`.
fn value<'a>(args: &mut Iter<'a, String>, flag: &str) -> &'a str {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

/// A non-negative integer flag value.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("invalid {flag} value '{text}'")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
        Some("point") => point(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
        }
        Some(other) => fail(&format!("unknown command '{other}'")),
    }
}

fn list() {
    let registry = engine::registry();
    let width = registry.iter().map(|e| e.id().len()).max().unwrap_or(0);
    println!("experiments:");
    for experiment in registry {
        println!(
            "  {:<width$}  {}",
            experiment.id(),
            experiment.title(),
            width = width
        );
    }
    // Release policies come from the core registry: anything listed here is
    // accepted by `--scenario` policies lines, the serve API and `point`.
    let descriptors = earlyreg_core::registry::descriptors();
    let width = descriptors.iter().map(|d| d.id.len()).max().unwrap_or(0);
    println!("policies:");
    for descriptor in descriptors {
        println!(
            "  {:<width$}  {}",
            descriptor.id,
            descriptor.title,
            width = width
        );
    }
    // Workloads likewise: anything listed here is accepted by `--scenario`
    // workloads lines, the serve API and `point`.
    let descriptors = earlyreg_workloads::registry::descriptors();
    let width = descriptors.iter().map(|d| d.id.len()).max().unwrap_or(0);
    println!("workloads:");
    for descriptor in descriptors {
        let class = match descriptor.class {
            earlyreg_workloads::WorkloadClass::Int => "int",
            earlyreg_workloads::WorkloadClass::Fp => "fp",
        };
        let paper = if descriptor.paper { " [paper]" } else { "" };
        println!(
            "  {:<width$}  [{class}] {}{paper}",
            descriptor.id,
            descriptor.description,
            width = width
        );
    }
}

fn run(args: &[String]) {
    let mut ids: Vec<String> = Vec::new();
    let mut options = ExperimentOptions::default();
    let mut scenario = Scenario::table2();
    let mut format = Format::Text;
    let mut out: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = Some(PathBuf::from("target/exp-cache"));

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => format = ok(Format::parse(value(&mut iter, arg))),
            "--out" => out = Some(PathBuf::from(value(&mut iter, arg))),
            "--scale" => options.scale = ok(ExperimentOptions::parse_scale(value(&mut iter, arg))),
            "--jobs" => {
                options.threads = ok(ExperimentOptions::parse_threads(value(&mut iter, arg)))
            }
            "--max-instructions" => {
                options.max_instructions =
                    ok(ExperimentOptions::parse_budget(value(&mut iter, arg)))
            }
            "--scenario" => {
                scenario = ok(Scenario::from_file(&PathBuf::from(value(&mut iter, arg))))
            }
            "--cache" => cache_dir = Some(PathBuf::from(value(&mut iter, arg))),
            "--no-cache" => cache_dir = None,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag '{flag}'")),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        fail("run: name at least one experiment id (or 'all')");
    }
    // JSON/CSV reports are files; default a directory so the reports land
    // somewhere useful instead of interleaving on stdout.
    if out.is_none() && format != Format::Text {
        out = Some(PathBuf::from("out"));
    }

    let cache = cache_dir.map(PointCache::new);
    let ctx = PlanContext::new(options, scenario);
    match engine::run_to_files(&ids, &ctx, cache.as_ref(), format, out.as_deref()) {
        Ok(outcome) => {
            if let Some(dir) = &out {
                println!("reports written to {}/", dir.display());
            }
            println!("{}", outcome.summary.line());
        }
        Err(message) => fail(&message),
    }
}

fn point(args: &[String]) {
    let mut options = ExperimentOptions::default();
    let mut workload: Option<&str> = None;
    let mut policy = ReleasePolicy::Extended;
    let (mut int_regs, mut fp_regs) = (64, 64);
    let mut exception_interval = None;
    let mut verify = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(&mut iter, arg)),
            "--policy" => policy = ok(ReleasePolicy::parse(value(&mut iter, arg))),
            "--int-regs" => int_regs = number(arg, value(&mut iter, arg)),
            "--fp-regs" => fp_regs = number(arg, value(&mut iter, arg)),
            "--scale" => options.scale = ok(ExperimentOptions::parse_scale(value(&mut iter, arg))),
            "--max-instructions" => {
                options.max_instructions =
                    ok(ExperimentOptions::parse_budget(value(&mut iter, arg)))
            }
            "--exception-interval" => exception_interval = Some(number(arg, value(&mut iter, arg))),
            "--verify" => verify = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("point: unknown argument '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("point: --workload is required"));
    let id = ok(earlyreg_workloads::registry::parse(workload)).id;

    let scenario = Scenario::table2();
    let mut config = scenario.machine(policy, int_regs, fp_regs);
    config.exceptions.interval = exception_interval;
    if let Err(error) = config.validate() {
        fail(&format!("invalid machine: {error}"));
    }
    let ctx = PlanContext::new(options, scenario);
    let workload = ctx.workload(id).expect("registered ids are in the suite");
    let point = RunPoint {
        workload: workload.name(),
        class: workload.class(),
        policy,
        phys_int: int_regs,
        phys_fp: fp_regs,
    };
    let planned = ctx.point_with_config(point, config);
    let mut sim = Simulator::new(planned.config, workload.program.clone());
    let stats = sim.run(RunLimits::instructions(options.max_instructions));

    println!(
        "workload {} ({}) — policy {policy}, {int_regs} int + {fp_regs} fp physical registers — point {:016x}",
        workload.name(),
        workload.spec.description,
        planned.digest
    );
    print_stats(&stats);
    if prof::enabled() {
        println!();
        print!("{}", prof::take_report());
    }

    if verify {
        println!();
        match verify_against_emulator(&sim, &workload.program) {
            outcome if outcome.is_match() => {
                println!("golden-model verification: MATCH ({outcome:?})")
            }
            outcome => {
                println!("golden-model verification FAILED: {outcome:?}");
                exit(1);
            }
        }
    }
}

/// The statistics block of `point`: headline counters, rename stalls, and
/// per class the average register occupancy and the release counts.
fn print_stats(stats: &SimStats) {
    println!();
    println!("cycles                    {:>12}", stats.cycles);
    println!("committed instructions    {:>12}", stats.committed);
    println!("IPC                       {:>12.3}", stats.ipc());
    println!("halted                    {:>12}", stats.halted);
    println!("committed branches        {:>12}", stats.committed_branches);
    println!(
        "branch mispredictions     {:>12}",
        stats.mispredicted_branches
    );
    println!(
        "prediction accuracy       {:>11.1}%",
        stats.predictor.accuracy() * 100.0
    );
    println!(
        "committed loads / stores  {:>6} / {:<6}",
        stats.committed_loads, stats.committed_stores
    );
    println!(
        "L1D miss ratio            {:>11.1}%",
        stats.memory.l1d.miss_ratio() * 100.0
    );
    println!("exceptions taken          {:>12}", stats.exceptions);
    println!();
    println!(
        "rename stalls (cycles)    free-list {}  ros {}  lsq {}  branches {}",
        stats.rename_stalls.free_list,
        stats.rename_stalls.ros_full,
        stats.rename_stalls.lsq_full,
        stats.rename_stalls.pending_branches
    );
    for (label, class_stats, occ) in [
        ("int", &stats.release.int, &stats.occupancy_int),
        ("fp ", &stats.release.fp, &stats.occupancy_fp),
    ] {
        println!();
        println!(
            "{label} registers: avg empty {:.1}  ready {:.1}  idle {:.1}  (allocated {:.1})",
            occ.avg_empty(),
            occ.avg_ready(),
            occ.avg_idle(),
            occ.avg_allocated()
        );
        println!(
            "{label} releases : conventional {}  at-LU-commit {}  immediate {}  reuse {}  branch-confirm {}  squash {}",
            class_stats.conventional_releases,
            class_stats.early_at_lu_commit,
            class_stats.immediate_at_decode,
            class_stats.reuses,
            class_stats.branch_confirm_releases,
            class_stats.squash_mispredict_frees + class_stats.squash_exception_frees
        );
    }
}
