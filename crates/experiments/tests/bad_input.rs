//! Bad input to the command-line tools is an error with a message and exit
//! code 2, never a panic (exit code 101); plus the one `earlyreg-exp point`
//! run that must succeed and agree with the engine.

use earlyreg_experiments::engine::{self, PlanContext};
use earlyreg_experiments::{fig10, ExperimentOptions, Scenario};
use earlyreg_workloads::Scale;
use std::process::{Command, Output};

fn assert_rejected(output: Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// `earlyreg-exp point` on smoke-scale swim with one more flag and value.
fn point_with(flag: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_earlyreg-exp"))
        .args(["point", "--workload", "swim", "--scale", "smoke"])
        .args([flag, value])
        .output()
        .expect("earlyreg-exp starts")
}

#[test]
fn point_rejects_bad_register_counts_workloads_and_policies() {
    let workloads = format!(
        "unknown workload 'doom' (registered: {})",
        earlyreg_workloads::registry::ids().join(", ")
    );
    let policies = format!(
        "unknown policy 'bogus' (registered: {})",
        earlyreg_core::registry::ids().join(", ")
    );
    for (flag, value, needle) in [
        ("--int-regs", "10", "at least 33"),
        ("--fp-regs", "10", "at least 33"),
        ("--fp-regs", "100000000000", "exceeds the PhysReg range"),
        ("--workload", "doom", workloads.as_str()),
        ("--policy", "bogus", policies.as_str()),
    ] {
        assert_rejected(point_with(flag, value), needle);
    }
}

#[test]
fn exp_rejects_a_scenario_sweep_size_below_the_architectural_minimum() {
    let path = std::env::temp_dir().join(format!("earlyreg-bad-sweep-{}.conf", std::process::id()));
    std::fs::write(&path, "sweep_sizes = 10\n").expect("write scenario");
    let output = Command::new(env!("CARGO_BIN_EXE_earlyreg-exp"))
        .args([
            "run",
            "fig11",
            "--scale",
            "smoke",
            "--no-cache",
            "--scenario",
        ])
        .arg(&path)
        .output()
        .expect("earlyreg-exp starts");
    let _ = std::fs::remove_file(&path);
    assert_rejected(output, "at least 33");
}

#[test]
fn point_rejects_a_zero_budget_a_zero_interval_and_run_only_flags() {
    for (flag, value, needle) in [
        ("--max-instructions", "0", "budget must be at least 1"),
        ("--exception-interval", "0", "interval must be at least 1"),
        ("--format", "json", "unknown argument '--format'"),
    ] {
        assert_rejected(point_with(flag, value), needle);
    }
}

#[test]
fn exp_rejects_a_zero_budget() {
    let output = Command::new(env!("CARGO_BIN_EXE_earlyreg-exp"))
        .args([
            "run",
            "fig10",
            "--scale",
            "smoke",
            "--no-cache",
            "--max-instructions",
            "0",
        ])
        .output()
        .expect("earlyreg-exp starts");
    assert_rejected(output, "instruction budget must be at least 1");
}

/// The value printed after `label` on its own statistics line.
fn stat(stdout: &str, label: &str) -> u64 {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("no '{label}' line in:\n{stdout}"))
}

#[test]
fn point_names_the_planned_digest_and_matches_the_engine() {
    let args = "point --workload swim --policy conv --int-regs 48 --fp-regs 48 \
                --scale smoke --max-instructions 20000 --verify";
    let output = Command::new(env!("CARGO_BIN_EXE_earlyreg-exp"))
        .args(args.split_whitespace())
        .output()
        .expect("earlyreg-exp starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert!(
        stdout.contains("golden-model verification: MATCH"),
        "{stdout}"
    );

    let header = stdout.lines().next().expect("header line");
    let digest = header
        .rsplit_once("— point ")
        .map(|(_, digest)| digest)
        .unwrap_or_else(|| panic!("no digest in '{header}'"));
    assert_eq!(digest.len(), 16, "{header}");

    let ctx = PlanContext::new(
        ExperimentOptions {
            scale: Scale::Smoke,
            threads: 1,
            max_instructions: 20_000,
        },
        Scenario::table2(),
    );
    let planned = fig10::plan(&ctx)
        .into_iter()
        .find(|p| format!("{:016x}", p.digest) == digest)
        .unwrap_or_else(|| panic!("digest {digest} is not in fig10's plan"));
    let results = engine::simulate(&ctx, std::slice::from_ref(&planned));
    let stats = results.stats(&planned).expect("the planned point resolves");
    assert_eq!(stat(&stdout, "cycles "), stats.cycles);
    assert_eq!(stat(&stdout, "committed instructions "), stats.committed);
}
