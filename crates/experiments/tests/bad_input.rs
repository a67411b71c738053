//! Bad input to the command-line tools is an error with a message and exit
//! code 2, never a panic (exit code 101).

use std::process::{Command, Output};

fn assert_rejected(output: Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn run_workload_rejects_out_of_range_register_counts() {
    for (flag, value, needle) in [
        ("--int-regs", "10", "at least 33"),
        ("--fp-regs", "10", "at least 33"),
        ("--fp-regs", "100000000000", "exceeds the PhysReg range"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_run_workload"))
            .args(["--workload", "swim", "--scale", "smoke", flag, value])
            .output()
            .expect("run_workload starts");
        assert_rejected(output, needle);
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
fn run_workload_rejects_a_zero_budget_and_a_zero_exception_interval() {
    for (flag, needle) in [
        ("--max-instructions", "budget must be at least 1"),
        ("--exception-interval", "interval must be at least 1"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_run_workload"))
            .args(["--workload", "swim", "--scale", "smoke", flag, "0"])
            .output()
            .expect("run_workload starts");
        assert_rejected(output, needle);
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
