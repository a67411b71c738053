//! Regression fixtures: minimized reproducers serialized as JSON.
//!
//! A fixture stores the *recipe* for a failing check — the hazard
//! configuration, the (minimized) block list and the machine knobs — rather
//! than the compiled program: generation is deterministic, so the recipe
//! rebuilds bit-identical programs forever, stays human-readable, and
//! survives ISA encoding changes that would invalidate a raw instruction
//! dump.
//!
//! Checked-in fixtures live under `tests/fixtures/*.json`.  CI replays every
//! one of them against **every registered policy** (not just the policy that
//! originally failed): a fixture is a distilled hazard scenario, and a
//! future scheme must survive all of them.

use crate::generator::{compile, HazardBlock, HazardConfig};
use crate::harness::{check_program, CheckConfig, CheckReport, Violation};
use earlyreg_core::{registry, ReleasePolicy};
use earlyreg_isa::Program;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A serialized reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fixture {
    /// What this fixture reproduces (free text, shown on failure).
    pub description: String,
    /// Id of the policy the failure was found under ("conv", "extended",
    /// ...).  Replays cover every registered policy; this records provenance
    /// and picks the policy for [`Fixture::check_origin`], which reports an
    /// id that is no longer registered as an error.
    pub policy: String,
    /// Integer physical register file size of the failing machine.
    pub phys_int: usize,
    /// FP physical register file size of the failing machine.
    pub phys_fp: usize,
    /// Exception injection interval of the failing machine.
    pub exception_interval: Option<u64>,
    /// Generator knobs (iteration count, working sets, data seed).
    pub config: HazardConfig,
    /// The (minimized) hazard block list; compiled with `config`.
    pub blocks: Vec<HazardBlock>,
}

impl Fixture {
    /// Rebuild the reproducer program.
    pub fn program(&self) -> Arc<Program> {
        Arc::new(compile(&self.config, &self.blocks))
    }

    /// The check configuration for `policy` on this fixture's machine.
    pub fn check_config(&self, policy: ReleasePolicy) -> CheckConfig {
        CheckConfig {
            policy,
            phys_int: self.phys_int,
            phys_fp: self.phys_fp,
            exception_interval: self.exception_interval,
            ..CheckConfig::new(policy)
        }
    }

    /// Re-run the check under the policy the fixture was recorded against.
    /// Fails with the fixture's provenance string when the recorded policy
    /// id is no longer in the registry.
    pub fn check_origin(&self) -> Result<Result<CheckReport, Violation>, String> {
        let policy = registry::parse(&self.policy)
            .map_err(|e| format!("fixture '{}': {e}", self.description))?;
        let program = self.program();
        Ok(check_program(&self.check_config(policy), &program))
    }

    /// Replay against every registered policy; returns per-policy results.
    pub fn replay_all(&self) -> Vec<(ReleasePolicy, Result<CheckReport, Violation>)> {
        let program = self.program();
        registry::registered()
            .map(|policy| (policy, check_program(&self.check_config(policy), &program)))
            .collect()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Fixture, String> {
        serde::json::from_str(text).map_err(|e| format!("invalid fixture JSON: {e}"))
    }

    /// Load one fixture file.
    pub fn load(path: &Path) -> Result<Fixture, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the fixture to `path` as pretty JSON.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Load every `*.json` fixture in `dir`, sorted by file name for
/// deterministic replay order.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Fixture)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read fixture directory {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| Fixture::load(&p).map(|f| (p, f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fixture {
        Fixture {
            description: "round-trip sample".into(),
            policy: "conventional".into(),
            phys_int: 40,
            phys_fp: 40,
            exception_interval: Some(97),
            config: HazardConfig {
                seed: 12345,
                iterations: 1,
                blocks: 2,
                int_ws: 3,
                fp_ws: 1,
            },
            blocks: vec![
                HazardBlock::BranchShadow(2, 3),
                HazardBlock::AntiDepChain(0, 2),
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let fixture = sample();
        let parsed = Fixture::from_json(&fixture.to_json()).expect("round trip");
        assert_eq!(parsed, fixture);
    }

    #[test]
    fn fixture_programs_are_reproducible() {
        let fixture = sample();
        let a = fixture.program();
        let b = fixture.program();
        assert_eq!(a.instrs.len(), b.instrs.len());
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn unknown_policy_id_is_reported() {
        let mut fixture = sample();
        fixture.policy = "no-such-scheme".into();
        let err = fixture.check_origin().unwrap_err();
        assert!(err.contains("no-such-scheme"), "got: {err}");
    }
}
