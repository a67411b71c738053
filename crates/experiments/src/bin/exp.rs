//! `earlyreg-exp` — the one CLI over the declarative experiment engine.
//!
//! ```text
//! earlyreg-exp list
//! earlyreg-exp run <ids...|all> [--format text|json|csv] [--out DIR]
//!                  [--scale smoke|bench|full] [--jobs N] [--max-instructions N]
//!                  [--scenario FILE] [--cache DIR | --no-cache]
//! ```
//!
//! `run` plans the union of the selected experiments' simulation points,
//! dedups them across experiments, answers what it can from the on-disk
//! point cache, simulates the rest in parallel (each distinct point exactly
//! once) and renders every report through the selected backend.  The final
//! summary line reports the planned / unique / cache-hit / simulated counts.

use earlyreg_experiments::engine::{self, PlanContext};
use earlyreg_experiments::{ExperimentOptions, Format, PointCache, Scenario};
use std::path::PathBuf;
use std::process::exit;

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
";

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!();
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
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
    // accepted by `--scenario` policies lines, the serve API and `run_workload`.
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
    // workloads lines, the serve API and `run_workload`.
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
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--format" => match Format::parse(&value("--format")) {
                Ok(parsed) => format = parsed,
                Err(message) => fail(&message),
            },
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--scale" => match ExperimentOptions::parse_scale(&value("--scale")) {
                Ok(scale) => options.scale = scale,
                Err(message) => fail(&message),
            },
            "--jobs" | "--threads" => match ExperimentOptions::parse_threads(&value("--jobs")) {
                Ok(threads) => options.threads = threads,
                Err(message) => fail(&message),
            },
            "--max-instructions" => {
                match ExperimentOptions::parse_budget(&value("--max-instructions")) {
                    Ok(budget) => options.max_instructions = budget,
                    Err(message) => fail(&message),
                }
            }
            "--scenario" => {
                let path = PathBuf::from(value("--scenario"));
                scenario = Scenario::from_file(&path).unwrap_or_else(|message| fail(&message));
            }
            "--cache" => cache_dir = Some(PathBuf::from(value("--cache"))),
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
