//! Simulator-throughput benchmark: host-side speed, not simulated IPC.
//!
//! Every experiment in the paper is a sweep of independent cycle-level
//! simulations, so *simulated instructions per host-second* is the lever that
//! decides how many (workload, policy, register-file-size) points a run can
//! afford.  This binary measures it end to end and records the result in
//! `BENCH_sim_throughput.json`, the committed perf-trajectory baseline the
//! README's "Simulator performance" section tracks PR-over-PR.
//!
//! Three kinds of measurement:
//!
//! * **Per-point** (always): one fixed-budget run per (workload, policy,
//!   front-end mode) — `live` is the classic decode-and-execute front-end,
//!   `replay` is the decode-once trace-replay front-end the sweep paths use
//!   by default (including its one-time capture cost).
//! * **Sweep** (`--sweep`): the fig10 sweep exactly as `earlyreg-exp`
//!   runs it — select, plan, then `engine::simulate` with no point cache —
//!   live vs trace-replay, recording wall time and aggregate throughput.
//! * **Regression gate** (`--baseline FILE`): compare this run's per-point
//!   geometric-mean throughput against a committed baseline JSON and exit
//!   non-zero if it regressed more than `--max-regression` percent.
//!
//! `--profile` prints the per-phase breakdown after each measured run;
//! `--profile-json FILE` additionally writes every measured run's table as
//! JSON (CI's profiling-smoke step parses it to pin the rename+commit share
//! of phase time).  Build with `--features profile` (forwards to
//! `earlyreg-sim/profile`) to compile the scope timers in.
//!
//! Workloads come from the string-keyed workload registry: `--workloads`
//! takes registered ids/aliases plus the keywords `all`, `paper` (the
//! synthetic Table 3 set) and `asm` (the assembled real kernels).  The
//! default measures one synthetic member of each class plus one assembled
//! kernel of each class, so the committed baseline tracks both front-ends
//! over both program sources.
//!
//! Usage:
//!   bench_sim_throughput [--instructions N] [--workloads swim,gcc,asm]
//!                        [--out BENCH_sim_throughput.json] [--sweep]
//!                        [--baseline FILE] [--max-regression PCT]
//!                        [--profile]

use earlyreg_core::{registry, ReleasePolicy};
use earlyreg_experiments::config::{ExperimentOptions, Scenario};
use earlyreg_experiments::engine::{self, PlanContext};
use earlyreg_sim::profile::prof;
use earlyreg_sim::{decoded_trace_for, MachineConfig, RunLimits, Simulator, TRACE_SLACK};
use earlyreg_workloads::registry as workloads_registry;
use earlyreg_workloads::{workload_with_target_instructions, Scale, WorkloadKind};
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    instructions: u64,
    workloads: Vec<String>,
    out: String,
    sweep: bool,
    baseline: Option<String>,
    max_regression: f64,
    profile: bool,
    profile_json: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_sim_throughput [--instructions N] [--workloads name,name,...] [--out FILE] \
         [--sweep] [--baseline FILE] [--max-regression PCT] [--profile] [--profile-json FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        instructions: 1_000_000,
        workloads: vec![
            "swim".into(),
            "gcc".into(),
            "matmul".into(),
            "quicksort".into(),
        ],
        out: "BENCH_sim_throughput.json".into(),
        sweep: false,
        baseline: None,
        max_regression: 25.0,
        profile: false,
        profile_json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--instructions" => args.instructions = value().parse().unwrap_or_else(|_| usage()),
            "--workloads" => {
                args.workloads = value().split(',').map(str::to_owned).collect();
            }
            "--out" => args.out = value(),
            "--sweep" => args.sweep = true,
            "--baseline" => args.baseline = Some(value()),
            "--max-regression" => args.max_regression = value().parse().unwrap_or_else(|_| usage()),
            "--profile" => args.profile = true,
            "--profile-json" => args.profile_json = Some(value()),
            _ => usage(),
        }
    }
    args
}

struct Measurement {
    workload: String,
    policy: ReleasePolicy,
    mode: &'static str,
    committed: u64,
    cycles: u64,
    seconds: f64,
}

impl Measurement {
    /// Simulated (committed) instructions per host-second.
    fn mips(&self) -> f64 {
        if self.seconds > 0.0 {
            self.committed as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Simulated cycles per host-second.
    fn cps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.cycles as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// One timed sweep pass (cold cache): wall time + aggregate throughput.
struct SweepMeasurement {
    mode: &'static str,
    points: usize,
    committed: u64,
    seconds: f64,
}

impl SweepMeasurement {
    fn mips(&self) -> f64 {
        if self.seconds > 0.0 {
            self.committed as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A drained per-phase profile table for one measured run, kept for
/// `--profile-json`.
struct ProfileCapture {
    label: String,
    rows: Vec<prof::PhaseRow>,
}

/// Drain the per-phase profile after a measured run: print it under
/// `--profile`, keep it for `--profile-json`.  Draining even when only one of
/// the two was requested keeps runs independent (the thread-local table is
/// cumulative).
fn maybe_profile(args: &Args, label: &str, captures: &mut Vec<ProfileCapture>) {
    if !args.profile && args.profile_json.is_none() {
        return;
    }
    let rows = prof::take_table();
    if args.profile {
        println!("--- per-phase profile: {label} ---");
        print!("{}", prof::render_rows(&rows));
    }
    if args.profile_json.is_some() {
        captures.push(ProfileCapture {
            label: label.to_string(),
            rows,
        });
    }
}

/// Serialize the captured per-phase tables as JSON (one entry per measured
/// label, phases in pipeline order).
fn write_profile_json(path: &str, captures: &[ProfileCapture]) {
    let mut json = String::from("{\n  \"benchmark\": \"sim_throughput_phases\",\n  \"runs\": [\n");
    for (i, c) in captures.iter().enumerate() {
        let total: u64 = c.rows.iter().map(|r| r.nanos).sum();
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"total_nanos\": {}, \"phases\": [",
            c.label, total
        );
        for (j, row) in c.rows.iter().enumerate() {
            let _ = write!(
                json,
                "{}{{\"phase\": \"{}\", \"nanos\": {}, \"calls\": {}}}",
                if j > 0 { ", " } else { "" },
                row.phase.name(),
                row.nanos,
                row.calls,
            );
        }
        let _ = writeln!(json, "]}}{}", if i + 1 < captures.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The fig10 sweep with no point cache, in `mode` (`live` forces
/// `EARLYREG_NO_REPLAY`): the select → plan → simulate path `earlyreg-exp`
/// runs.  The workload suite is built before the clock starts (a fresh one
/// per mode, so the replay pass pays its own trace captures inside the
/// timed region).
fn run_fig10_sweep(mode: &'static str, max_instructions: u64) -> SweepMeasurement {
    let options = ExperimentOptions {
        scale: Scale::Smoke,
        threads: 0,
        max_instructions,
    };
    let ctx = PlanContext::new(options, Scenario::table2());
    let experiments = engine::select(&["fig10".to_string()]).expect("fig10 is registered");
    if mode == "live" {
        std::env::set_var("EARLYREG_NO_REPLAY", "1");
    } else {
        std::env::remove_var("EARLYREG_NO_REPLAY");
    }
    let start = Instant::now();
    let plan: Vec<_> = experiments.iter().flat_map(|e| e.plan(&ctx)).collect();
    let results = engine::simulate(&ctx, &plan);
    let seconds = start.elapsed().as_secs_f64();
    std::env::remove_var("EARLYREG_NO_REPLAY");
    SweepMeasurement {
        mode,
        points: results.len(),
        committed: engine::dedup_plan(plan)
            .iter()
            .map(|p| results.stats(p).expect("every point resolves").committed)
            .sum(),
        seconds,
    }
}

/// Geometric mean of the `sim_instr_per_host_sec` values in a benchmark
/// JSON's `points` array (schema-light: scans for the field).
fn baseline_geomean(json: &str) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut count = 0u32;
    for chunk in json.split("\"sim_instr_per_host_sec\":").skip(1) {
        let value: f64 = chunk
            .trim_start()
            .split(|c: char| c != '.' && !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()?;
        if value > 0.0 {
            log_sum += value.ln();
            count += 1;
        }
    }
    (count > 0).then(|| (log_sum / count as f64).exp())
}

/// Expand `--workloads` entries into canonical registered ids: `all`,
/// `paper` and `asm` pull groups out of the workload registry; anything else
/// must parse as a registered id or alias.
fn expand_workloads(requested: &[String]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for entry in requested {
        match entry.as_str() {
            "all" => names.extend(workloads_registry::ids()),
            "paper" => names.extend(workloads_registry::paper_descriptors().map(|d| d.id)),
            "asm" => names.extend(
                workloads_registry::descriptors()
                    .iter()
                    .filter(|d| d.kind() == WorkloadKind::Asm)
                    .map(|d| d.id),
            ),
            name => match workloads_registry::parse(name) {
                Ok(d) => names.push(d.id),
                Err(e) => {
                    eprintln!("{e} (or the keywords: all, paper, asm)");
                    std::process::exit(2);
                }
            },
        }
    }
    names.dedup();
    names
}

fn main() {
    let args = parse_args();
    // One throughput point per registered policy: new schemes join the
    // benchmark automatically through the registry.
    let policies: Vec<ReleasePolicy> = registry::registered().collect();

    let mut measurements = Vec::new();
    let mut profile_captures = Vec::new();
    for name in expand_workloads(&args.workloads) {
        // Size the program a little above the budget so the run is limited by
        // `max_instructions`, not by the program halting early.
        let workload = workload_with_target_instructions(name, args.instructions * 2)
            .expect("expand_workloads only returns registered ids");
        for &policy in &policies {
            for mode in ["live", "replay"] {
                let config = MachineConfig::icpp02(policy, 80, 80);
                let start = Instant::now();
                let mut sim = if mode == "replay" {
                    // The capture is memoized per program, so only the first
                    // replay run of each workload pays it — exactly like a
                    // sweep.  Time it inside the measurement to stay honest.
                    let trace = decoded_trace_for(
                        &workload.program,
                        args.instructions.saturating_add(TRACE_SLACK),
                    );
                    Simulator::with_replay(config, workload.program.clone(), trace)
                } else {
                    Simulator::new(config, workload.program.clone())
                };
                let stats = sim.run(RunLimits::instructions(args.instructions));
                let seconds = start.elapsed().as_secs_f64();
                let m = Measurement {
                    workload: name.to_string(),
                    policy,
                    mode,
                    committed: stats.committed,
                    cycles: stats.cycles,
                    seconds,
                };
                println!(
                    "{:<10} {:<12} {:<7} {:>10} instructions in {:>7.3}s  ->  {:>10.0} sim-instr/s  \
                     ({:>10.0} sim-cycles/s)",
                    m.workload,
                    policy.label(),
                    m.mode,
                    m.committed,
                    m.seconds,
                    m.mips(),
                    m.cps(),
                );
                maybe_profile(
                    &args,
                    &format!("{name}/{}/{mode}", policy.label()),
                    &mut profile_captures,
                );
                measurements.push(m);
            }
        }
    }

    let sweeps: Vec<SweepMeasurement> = if args.sweep {
        ["live", "replay"]
            .into_iter()
            .map(|mode| {
                let m = run_fig10_sweep(mode, args.instructions);
                println!(
                    "fig10 sweep {:<7} {:>3} points, {:>12} instructions in {:>7.3}s  ->  \
                     {:>10.0} sim-instr/s",
                    m.mode,
                    m.points,
                    m.committed,
                    m.seconds,
                    m.mips(),
                );
                maybe_profile(&args, &format!("fig10 sweep/{mode}"), &mut profile_captures);
                m
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut json = String::from("{\n  \"benchmark\": \"sim_throughput\",\n  \"unit\": \"simulated instructions per host-second\",\n  \"points\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"policy\": \"{}\", \"mode\": \"{}\", \"instructions\": {}, \"cycles\": {}, \"seconds\": {:.6}, \"sim_instr_per_host_sec\": {:.1}, \"sim_cycles_per_host_sec\": {:.1}}}{}",
            m.workload,
            m.policy.label(),
            m.mode,
            m.committed,
            m.cycles,
            m.seconds,
            m.mips(),
            m.cps(),
            if i + 1 < measurements.len() { "," } else { "" },
        );
    }
    json.push_str("  ]");
    if !sweeps.is_empty() {
        json.push_str(",\n  \"sweep\": {\n    \"experiment\": \"fig10\",\n    \"passes\": [\n");
        for (i, m) in sweeps.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"mode\": \"{}\", \"points\": {}, \"instructions\": {}, \"wall_seconds\": {:.6}, \"sim_instr_per_host_sec\": {:.1}}}{}",
                m.mode,
                m.points,
                m.committed,
                m.seconds,
                m.mips(),
                if i + 1 < sweeps.len() { "," } else { "" },
            );
        }
        json.push_str("    ]\n  }");
    }
    json.push_str("\n}\n");
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!("wrote {}", args.out);

    if let Some(path) = &args.profile_json {
        write_profile_json(path, &profile_captures);
    }

    // Regression gate: geometric mean across per-point measurements vs the
    // committed baseline.
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let Some(expected) = baseline_geomean(&baseline) else {
            eprintln!("baseline {path} contains no throughput points");
            std::process::exit(2);
        };
        let measured = baseline_geomean(&json).expect("this run produced points");
        let floor = expected * (1.0 - args.max_regression / 100.0);
        println!(
            "regression gate: measured geomean {measured:.0} vs baseline {expected:.0} \
             (floor {floor:.0}, max regression {:.0}%)",
            args.max_regression
        );
        if measured < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: {measured:.0} sim-instr/s is more than \
                 {:.0}% below the committed baseline {expected:.0}",
                args.max_regression
            );
            std::process::exit(1);
        }
    }
}
