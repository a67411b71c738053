//! Integration suite of the declarative experiment engine: every registered
//! experiment runs at smoke scale through the same path the `earlyreg-exp`
//! CLI uses, the JSON report schema round-trips through serde, and the
//! on-disk point cache returns bit-identical statistics.

use earlyreg::experiments::engine::{self, PlanContext};
use earlyreg::experiments::{
    fig03, fig09, fig10, sec33, sec44, table4, ExperimentOptions, Format, PointCache, Scenario,
};
use earlyreg::sim::{MachineConfig, RunLimits, SimStats, Simulator};
use earlyreg::workloads::{workload_by_name, Scale};
use earlyreg_core::ReleasePolicy;
use std::path::PathBuf;

fn smoke_options() -> ExperimentOptions {
    ExperimentOptions {
        scale: Scale::Smoke,
        threads: 4,
        max_instructions: 20_000,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("earlyreg-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every registered experiment runs through the engine (the CLI's `run all
/// --format json` path), writes a parsable JSON report, and the declared
/// result schemas round-trip through serde.
#[test]
fn run_all_writes_json_reports_that_round_trip() {
    let out = temp_dir("out");
    let ctx = PlanContext::new(smoke_options(), Scenario::table2());
    let outcome = engine::run_to_files(&["all".to_string()], &ctx, None, Format::Json, Some(&out))
        .expect("engine run succeeds");

    // One report per registered experiment, every point simulated once.
    assert_eq!(outcome.reports.len(), engine::registry().len());
    assert!(
        outcome.summary.planned > outcome.summary.unique,
        "overlapping experiments dedup"
    );
    assert_eq!(outcome.summary.resolve.cache_hits, 0);
    assert_eq!(outcome.summary.resolve.simulated, outcome.summary.unique);

    for report in &outcome.reports {
        let path = out.join(format!("{}.json", report.experiment));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing report {}: {e}", path.display()));
        let value = serde::json::parse(&text)
            .unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()));
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some(report.experiment)
        );
        assert_eq!(
            value.get("title").and_then(|v| v.as_str()),
            Some(report.title)
        );
        let data = value.get("data").expect("report has a data payload");

        // The result structs with a deserializable schema must round-trip
        // through serde: parse the emitted JSON back into the typed result
        // and re-serialize it to the identical value.
        let data_text = serde::json::write_compact(data);
        macro_rules! round_trip {
            ($ty:ty) => {{
                let parsed: $ty = serde::json::from_str(&data_text)
                    .unwrap_or_else(|e| panic!("{}: schema mismatch: {e}", report.experiment));
                assert_eq!(
                    serde::Serialize::to_value(&parsed),
                    *data,
                    "{}: round-trip changed the value",
                    report.experiment
                );
            }};
        }
        match report.experiment {
            "fig03" => round_trip!(fig03::Fig03Result),
            "sec33" => round_trip!(sec33::Sec33Result),
            "fig09" => round_trip!(fig09::Fig09Result),
            "sec44" => round_trip!(sec44::Sec44Result),
            "fig10" => round_trip!(fig10::Fig10Result),
            "table4" => round_trip!(table4::Table4Result),
            // fig11/ablation embed raw `RunResult`s (with `&'static str`
            // workload names) and table1/table3 are plain tables: those
            // schemas are serialize-only.  Still require non-trivial data.
            other => assert!(
                data.get("rows")
                    .or_else(|| data.get("points"))
                    .or_else(|| data.get("raw"))
                    .is_some(),
                "{other}: data payload has no recognisable collection"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// A warm engine run over the same cache answers every point from disk and
/// produces identical reports.
#[test]
fn warm_cache_run_hits_every_point_and_reproduces_reports() {
    let cache_dir = temp_dir("cache");
    let cache = PointCache::new(&cache_dir);
    let ctx = PlanContext::new(smoke_options(), Scenario::table2());
    let ids = vec!["fig10".to_string(), "sec33".to_string()];

    let cold = engine::run_to_files(&ids, &ctx, Some(&cache), Format::Text, None)
        .expect("cold run succeeds");
    assert_eq!(cold.summary.resolve.cache_hits, 0);
    assert!(cold.summary.resolve.simulated > 0);

    let warm = engine::run_to_files(&ids, &ctx, Some(&cache), Format::Text, None)
        .expect("warm run succeeds");
    assert_eq!(warm.summary.unique, cold.summary.unique);
    assert_eq!(
        warm.summary.resolve.cache_hits, warm.summary.unique,
        "fully warm"
    );
    assert_eq!(warm.summary.resolve.simulated, 0);
    for (a, b) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(a.text, b.text, "{}: warm text differs", a.experiment);
        assert_eq!(a.data, b.data, "{}: warm data differs", a.experiment);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `stats_equivalence` extended through the cache layer: storing and
/// re-loading the golden point returns bit-identical `SimStats`, and a
/// cache-backed engine sweep returns the same statistics as a direct
/// simulation of the same point.
#[test]
fn cache_hit_is_bit_identical_to_cold_run() {
    // The golden point of tests/stats_equivalence.rs.
    let workload = workload_by_name("swim", Scale::Smoke).expect("swim exists");
    let config = MachineConfig::icpp02(ReleasePolicy::Extended, 48, 48);
    let mut sim = Simulator::new(config, workload.program.clone());
    let direct: SimStats = sim.run(RunLimits::instructions(20_000));

    // Resolve the same point twice through the cache-backed engine.
    let cache_dir = temp_dir("golden");
    let cache = PointCache::new(&cache_dir);
    let ctx = PlanContext::new(smoke_options(), Scenario::table2());
    let swim = ctx.workload("swim").expect("swim in suite").clone();
    let plan = vec![ctx.point(&swim, ReleasePolicy::Extended, 48, 48)];

    let from_sim = {
        let outcome = engine::resolve_plan(&ctx, &plan, Some(&cache));
        outcome.stats(&plan[0]).expect("point resolved").clone()
    };
    let from_cache = {
        let outcome = engine::resolve_plan(&ctx, &plan, Some(&cache));
        outcome.stats(&plan[0]).expect("point resolved").clone()
    };

    assert_eq!(direct, from_sim, "engine simulation matches a direct run");
    assert_eq!(from_sim, from_cache, "cache hit is bit-identical");
    // And the entry really came from disk.
    assert_eq!(cache.load(&plan[0].key), Some(direct));
    let _ = std::fs::remove_dir_all(&cache_dir);
}
