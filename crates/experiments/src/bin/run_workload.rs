//! Run a single workload under a single configuration and print the full
//! statistics report — the "swiss-army knife" binary for exploring the
//! simulator outside the canned experiments.
//!
//! Usage:
//!   run_workload --workload swim [--policy <registered id, e.g. extended>]
//!                [--int-regs N] [--fp-regs N] [--scale smoke|bench|full]
//!                [--max-instructions N] [--exception-interval N] [--verify]
//!
//! Built with `--features profile`, it also prints the simulator's per-phase
//! timing table (fetch/rename/issue/writeback/commit) after the statistics.

use earlyreg_core::ReleasePolicy;
use earlyreg_experiments::ExperimentOptions;
use earlyreg_sim::profile::prof;
use earlyreg_sim::{verify_against_emulator, MachineConfig, RunLimits, Simulator};
use earlyreg_workloads::{workload_by_name, Scale};

struct Args {
    workload: String,
    policy: ReleasePolicy,
    int_regs: usize,
    fp_regs: usize,
    scale: Scale,
    max_instructions: u64,
    exception_interval: Option<u64>,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run_workload --workload NAME [--policy {}] [--int-regs N] \
         [--fp-regs N] [--scale smoke|bench|full] [--max-instructions N] \
         [--exception-interval N] [--verify]",
        earlyreg_core::registry::ids().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        policy: ReleasePolicy::Extended,
        int_regs: 64,
        fp_regs: 64,
        scale: Scale::Bench,
        max_instructions: 2_000_000,
        exception_interval: None,
        verify: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--policy" => {
                args.policy = ReleasePolicy::parse(&value()).unwrap_or_else(|error| {
                    eprintln!("{error}");
                    usage()
                })
            }
            "--int-regs" => args.int_regs = value().parse().unwrap_or_else(|_| usage()),
            "--fp-regs" => args.fp_regs = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                args.scale = ExperimentOptions::parse_scale(&value()).unwrap_or_else(|error| {
                    eprintln!("{error}");
                    usage()
                })
            }
            "--max-instructions" => {
                args.max_instructions =
                    ExperimentOptions::parse_budget(&value()).unwrap_or_else(|error| {
                        eprintln!("{error}");
                        usage()
                    })
            }
            "--exception-interval" => {
                args.exception_interval = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--verify" => args.verify = true,
            _ => usage(),
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let workload = match earlyreg_workloads::registry::parse(&args.workload) {
        Ok(descriptor) => {
            workload_by_name(descriptor.id, args.scale).expect("registered ids always instantiate")
        }
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    };

    let mut config = MachineConfig::icpp02(args.policy, args.int_regs, args.fp_regs);
    config.exceptions.interval = args.exception_interval;
    if let Err(error) = config.validate() {
        eprintln!("invalid machine: {error}");
        std::process::exit(2);
    }
    let mut sim = Simulator::new(config, workload.program.clone());
    let stats = sim.run(RunLimits::instructions(args.max_instructions));

    println!(
        "workload {} ({}) — policy {}, {} int + {} fp physical registers",
        workload.name(),
        workload.spec.description,
        args.policy,
        args.int_regs,
        args.fp_regs
    );
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
    if prof::enabled() {
        println!();
        print!("{}", prof::take_report());
    }

    if args.verify {
        println!();
        match verify_against_emulator(&sim, &workload.program) {
            outcome if outcome.is_match() => {
                println!("golden-model verification: MATCH ({outcome:?})")
            }
            outcome => {
                println!("golden-model verification FAILED: {outcome:?}");
                std::process::exit(1);
            }
        }
    }
}
