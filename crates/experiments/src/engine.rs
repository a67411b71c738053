//! The declarative experiment engine.
//!
//! Every table and figure of the paper is described by an [`Experiment`]:
//! an id, a title, a *plan* (the simulation points it needs) and a *render*
//! (the report it produces from the results).  The engine turns any set of
//! experiments into one shared sweep:
//!
//! 1. **Plan** — each experiment contributes its points through a shared
//!    [`PlanContext`] (one workload suite, one instruction budget, one
//!    [`Scenario`] of machine/sweep overrides for all of them).
//! 2. **Dedup** — the union of all plans is sorted by [`RunPoint`] and
//!    deduplicated by content digest, so a point two experiments share (e.g.
//!    Figure 10's 48-register points inside Figure 11's sweep) is simulated
//!    exactly once.
//! 3. **Cache** — each unique point is looked up in an optional on-disk
//!    [`PointCache`] keyed by (point, machine config, workload program,
//!    budget); only misses are simulated, on the parallel runner, and stored
//!    back.
//! 4. **Render** — every experiment renders its [`Report`] from the shared
//!    [`ResultSet`]; the [`RunSummary`] reports planned / unique / cache-hit
//!    / simulated point counts.
//!
//! The `earlyreg-exp` binary is a thin CLI over [`registry`] and [`run`].

use crate::cache::{fnv1a64, CacheKey, PointCache};
use crate::config::{ExperimentOptions, Scenario};
use crate::report::{emit, Format, Report};
use crate::runner::{run_configured_point, run_parallel, RunPoint, RunResult};
use crate::{ablation, context, fig03, fig09, fig10, fig11, sec33, sec44, table4};
use earlyreg_core::ReleasePolicy;
use earlyreg_sim::{MachineConfig, SimStats};
use earlyreg_workloads::{suite, Scale, Workload, WorkloadClass};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One planned simulation point: coordinates plus the exact machine to
/// simulate and its content-addressed identity.
#[derive(Debug, Clone)]
pub struct PlannedPoint {
    /// Point coordinates.
    pub point: RunPoint,
    /// The machine configuration to simulate.
    pub config: MachineConfig,
    /// Full cache identity of the point.
    pub key: CacheKey,
    /// Digest of `key` (cached; file name in the point cache and dedup key).
    pub digest: u64,
}

/// The instantiated workload suite at one scale, plus the program
/// fingerprints that enter every cache key.
///
/// Building one is expensive — it generates every synthetic program — so
/// long-lived callers (the `earlyreg-serve` service in particular) build one
/// per scale and share it across [`PlanContext`]s through an [`Arc`] via
/// [`PlanContext::with_workloads`].
pub struct WorkloadSet {
    scale: Scale,
    workloads: Vec<Workload>,
    fingerprints: HashMap<&'static str, u64>,
}

impl WorkloadSet {
    /// Instantiate the suite at the requested scale and fingerprint every
    /// generated program.
    pub fn new(scale: Scale) -> Self {
        let workloads = suite(scale);
        let fingerprints = workloads
            .iter()
            .map(|w| {
                let canonical = serde::Serialize::to_value(&*w.program).canonical();
                (w.name(), fnv1a64(canonical.as_bytes()))
            })
            .collect();
        WorkloadSet {
            scale,
            workloads,
            fingerprints,
        }
    }

    /// The scale this set was instantiated at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Every workload in the suite.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Find one workload by name.
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name() == name)
    }
}

/// Shared planning state: options, scenario and the workload suite, built
/// once per engine run and shared by every experiment.
pub struct PlanContext {
    /// Execution options (scale, threads, instruction budget).
    pub options: ExperimentOptions,
    /// Machine/sweep overrides.
    pub scenario: Scenario,
    set: Arc<WorkloadSet>,
    /// The workloads the sweeps cover: the scenario's `workloads = ...`
    /// selection, or the paper's Table 3 suite by default.  A subset of
    /// `set` — the full registry stays addressable through
    /// [`Self::workload`] / [`Self::all_workloads`].
    selected: Vec<Workload>,
}

impl PlanContext {
    /// Build the context, instantiating a fresh [`WorkloadSet`] at the
    /// options' scale.
    pub fn new(options: ExperimentOptions, scenario: Scenario) -> Self {
        let set = Arc::new(WorkloadSet::new(options.scale));
        Self::with_workloads(options, scenario, set)
    }

    /// Build the context around an existing (shared) workload set.
    ///
    /// # Panics
    ///
    /// Panics if the set was instantiated at a different scale than the
    /// options request — the fingerprints would not describe the programs
    /// actually simulated.
    pub fn with_workloads(
        options: ExperimentOptions,
        scenario: Scenario,
        set: Arc<WorkloadSet>,
    ) -> Self {
        assert_eq!(
            options.scale,
            set.scale(),
            "workload set scale does not match the requested options"
        );
        let selected = scenario
            .workload_ids()
            .into_iter()
            .map(|id| {
                set.workload(id)
                    .unwrap_or_else(|| panic!("registered workload '{id}' missing from the set"))
                    .clone()
            })
            .collect();
        PlanContext {
            options,
            scenario,
            set,
            selected,
        }
    }

    /// The workloads the sweeps cover (the scenario's selection; the paper's
    /// Table 3 suite by default).
    pub fn workloads(&self) -> &[Workload] {
        &self.selected
    }

    /// Every registered workload at this context's scale, selection aside
    /// (API listings, explicit point requests).
    pub fn all_workloads(&self) -> &[Workload] {
        self.set.workloads()
    }

    /// Find one workload by name, anywhere in the registry (not just the
    /// sweep selection).
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.set.workload(name)
    }

    /// The machine for one point: Table 2 plus the scenario's overrides.
    pub fn machine(&self, policy: ReleasePolicy, phys_int: usize, phys_fp: usize) -> MachineConfig {
        self.scenario.machine(policy, phys_int, phys_fp)
    }

    /// Plan one point under an explicit machine configuration.
    pub fn point_with_config(&self, point: RunPoint, config: MachineConfig) -> PlannedPoint {
        let key = CacheKey::new(
            point,
            serde::Serialize::to_value(&config).canonical(),
            self.set
                .fingerprints
                .get(point.workload)
                .copied()
                .unwrap_or_else(|| panic!("unknown workload '{}'", point.workload)),
            self.options.max_instructions,
        );
        let digest = key.digest();
        PlannedPoint {
            point,
            config,
            key,
            digest,
        }
    }

    /// Plan one point on the scenario machine.
    pub fn point(
        &self,
        workload: &Workload,
        policy: ReleasePolicy,
        phys_int: usize,
        phys_fp: usize,
    ) -> PlannedPoint {
        let point = RunPoint {
            workload: workload.name(),
            class: workload.class(),
            policy,
            phys_int,
            phys_fp,
        };
        self.point_with_config(point, self.machine(policy, phys_int, phys_fp))
    }

    /// Plan the cross product of the selected workloads x policies x
    /// (symmetric) sizes on the scenario machine.
    pub fn cross(&self, policies: &[ReleasePolicy], sizes: &[usize]) -> Vec<PlannedPoint> {
        self.cross_class(None, policies, sizes)
    }

    /// Like [`Self::cross`], restricted to one benchmark group.
    pub fn cross_class(
        &self,
        class: Option<WorkloadClass>,
        policies: &[ReleasePolicy],
        sizes: &[usize],
    ) -> Vec<PlannedPoint> {
        let mut points = Vec::new();
        for workload in self.workloads() {
            if class.is_some_and(|c| workload.class() != c) {
                continue;
            }
            for &policy in policies {
                for &size in sizes {
                    points.push(self.point(workload, policy, size, size));
                }
            }
        }
        points
    }
}

/// The simulated (or cache-loaded) results of a set of planned points,
/// addressed by content digest.
#[derive(Debug, Default)]
pub struct ResultSet {
    entries: HashMap<u64, RunResult>,
}

impl ResultSet {
    /// Number of distinct points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no point has been resolved.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The result of one planned point.
    pub fn get(&self, point: &PlannedPoint) -> Option<&RunResult> {
        self.entries.get(&point.digest)
    }

    /// Record the result of one resolved point ([`PointResolver`]s call
    /// this).
    pub fn insert(&mut self, digest: u64, result: RunResult) {
        self.entries.insert(digest, result);
    }

    /// The statistics of one planned point.
    pub fn stats(&self, point: &PlannedPoint) -> Option<&SimStats> {
        self.get(point).map(|r| &r.stats)
    }

    /// Materialise the results of a plan, in plan order.  Panics if a point
    /// was never resolved — experiments must render from the same plan they
    /// submitted.
    pub fn collect(&self, plan: &[PlannedPoint]) -> Vec<RunResult> {
        plan.iter()
            .map(|p| {
                self.get(p)
                    .unwrap_or_else(|| panic!("unresolved point {:?}", p.point))
                    .clone()
            })
            .collect()
    }
}

/// A declarative experiment: what to simulate and how to report it.
pub trait Experiment: Sync {
    /// Stable id used on the command line and in file names ("fig03").
    fn id(&self) -> &'static str;
    /// One-line description.
    fn title(&self) -> &'static str;
    /// The simulation points this experiment needs (empty for analytic or
    /// context-only experiments).
    fn plan(&self, ctx: &PlanContext) -> Vec<PlannedPoint>;
    /// Render the report from resolved results.
    fn render(&self, ctx: &PlanContext, results: &ResultSet) -> Report;
}

/// Every registered experiment, in the paper's presentation order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(context::Table1),
        Box::new(context::Table3),
        Box::new(fig03::Fig03),
        Box::new(sec33::Sec33),
        Box::new(fig09::Fig09),
        Box::new(sec44::Sec44),
        Box::new(fig10::Fig10),
        Box::new(fig11::Fig11),
        Box::new(table4::Table4),
        Box::new(ablation::Ablation),
    ]
}

/// Resolve experiment ids (or `all`) against the registry.
pub fn select(ids: &[String]) -> Result<Vec<Box<dyn Experiment>>, String> {
    let all = registry();
    if ids.is_empty() || ids.iter().any(|id| id == "all") {
        return Ok(all);
    }
    let mut selected = Vec::new();
    for id in ids {
        match all.iter().position(|e| e.id() == id) {
            Some(_) => {}
            None => {
                let known: Vec<&str> = all.iter().map(|e| e.id()).collect();
                return Err(format!(
                    "unknown experiment '{id}'; known: {}",
                    known.join(" ")
                ));
            }
        }
    }
    // Preserve registry order and drop duplicates.
    for experiment in all {
        if ids.iter().any(|id| id == experiment.id()) {
            selected.push(experiment);
        }
    }
    Ok(selected)
}

/// Counters of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Ids of the experiments that ran.
    pub experiments: Vec<&'static str>,
    /// Points requested across all experiment plans.
    pub planned: usize,
    /// Distinct points after cross-experiment dedup.
    pub unique: usize,
    /// How the unique points were resolved (disk hits, coalesced joins,
    /// simulations, LRU hits).
    pub resolve: ResolveStats,
}

impl RunSummary {
    /// One-line human summary (the CLI prints it; CI greps it, so the
    /// leading fields are format-stable; ` lru_hits=N` is appended only
    /// when the memory tier answered a point).
    pub fn line(&self) -> String {
        let mut line = format!(
            "points: planned={} unique={} cache_hits={} coalesced={} simulated={}",
            self.planned,
            self.unique,
            self.resolve.cache_hits,
            self.resolve.coalesced,
            self.resolve.simulated,
        );
        if self.resolve.lru_hits > 0 {
            line.push_str(&format!(" lru_hits={}", self.resolve.lru_hits));
        }
        line.push_str(&format!(" (experiments: {})", self.experiments.join(" ")));
        line
    }
}

/// The reports and counters of one engine run.
pub struct EngineOutcome {
    /// One report per experiment, in the order they were selected.
    pub reports: Vec<Report>,
    /// Planner/cache counters.
    pub summary: RunSummary,
}

/// Counters of one plan resolution.
///
/// [`CacheResolver`] reports the disk hits and simulations; `coalesced` and
/// `lru_hits` belong to `earlyreg-serve`'s resolver (in-memory LRU → disk
/// cache → single-flight join → local simulation) and stay zero elsewhere.
/// Whatever the mix, the *results* are identical — the tiers only change
/// where the bits come from, never what they are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Points answered by the on-disk cache.
    pub cache_hits: usize,
    /// Points answered by another in-flight computation (single-flight
    /// resolvers).
    pub coalesced: usize,
    /// Points simulated by this resolution.
    pub simulated: usize,
    /// Points answered by an in-memory LRU tier.
    pub lru_hits: usize,
}

/// Strategy for turning a deduplicated plan into results.
///
/// The engine ships [`CacheResolver`] (cache lookup, parallel simulation of
/// the misses, store-back); `earlyreg-serve` provides a single-flight
/// resolver that puts an in-memory LRU in front of the disk cache and
/// dedups identical points across concurrent requests.  The input slice is sorted by [`RunPoint`] and deduplicated by
/// digest; the returned [`ResultSet`] must contain every point in it.
pub trait PointResolver: Sync {
    /// Resolve every planned point.
    fn resolve(&self, ctx: &PlanContext, unique: &[PlannedPoint]) -> (ResultSet, ResolveStats);
}

/// Simulate one planned point (the workload must exist in the context's
/// suite).  The shared primitive under every resolver.
pub fn simulate_planned(ctx: &PlanContext, planned: &PlannedPoint) -> RunResult {
    let workload = ctx
        .workload(planned.point.workload)
        .unwrap_or_else(|| panic!("unknown workload '{}'", planned.point.workload));
    run_configured_point(
        workload,
        planned.point,
        planned.config,
        ctx.options.max_instructions,
    )
}

/// The default resolver: answer what the on-disk cache can, simulate the
/// misses in parallel, store fresh results back.
pub struct CacheResolver<'a> {
    /// The backing cache (`None` simulates everything).
    pub cache: Option<&'a PointCache>,
}

impl PointResolver for CacheResolver<'_> {
    fn resolve(&self, ctx: &PlanContext, unique: &[PlannedPoint]) -> (ResultSet, ResolveStats) {
        let mut results = ResultSet::default();
        let mut misses = Vec::new();
        let mut stats = ResolveStats::default();
        for planned in unique {
            match self.cache.and_then(|c| c.load(&planned.key)) {
                Some(cached) => {
                    stats.cache_hits += 1;
                    results.insert(
                        planned.digest,
                        RunResult {
                            point: planned.point,
                            stats: cached,
                        },
                    );
                }
                None => misses.push(planned),
            }
        }

        // Batched scheduling: execute same-workload points consecutively
        // (one shared decoded trace per workload), largest groups first to
        // minimise the parallel tail.  Results are keyed by
        // digest, so execution order never affects the output.
        let order = crate::runner::batch_order(&misses, |p| p.point.workload);
        let misses: Vec<&PlannedPoint> = order.into_iter().map(|i| misses[i]).collect();

        let simulated = run_parallel(ctx.options.effective_threads(), &misses, |planned| {
            simulate_planned(ctx, planned)
        });
        for (planned, result) in misses.iter().zip(simulated) {
            if let Some(cache) = self.cache {
                if let Err(error) = cache.store(&planned.key, &result.stats) {
                    eprintln!("warning: cannot cache point {:?}: {error}", planned.point);
                }
            }
            stats.simulated += 1;
            results.insert(planned.digest, result);
        }
        (results, stats)
    }
}

/// Sort a union of plans by [`RunPoint`] and drop digest duplicates — the
/// canonical pre-resolution normalisation.
pub fn dedup_plan(mut union: Vec<PlannedPoint>) -> Vec<PlannedPoint> {
    union.sort_by_key(|p| (p.point, p.digest));
    union.dedup_by_key(|p| p.digest);
    union
}

/// Resolve a plan against an optional disk cache: dedup, cache lookups,
/// parallel simulation of the misses, store-back.
pub fn resolve_plan(
    ctx: &PlanContext,
    plan: &[PlannedPoint],
    cache: Option<&PointCache>,
) -> ResultSet {
    let unique = dedup_plan(plan.to_vec());
    CacheResolver { cache }.resolve(ctx, &unique).0
}

/// Resolve a plan without a disk cache — the path the per-module `run()`
/// convenience functions (and their tests) use.
pub fn simulate(ctx: &PlanContext, plan: &[PlannedPoint]) -> ResultSet {
    resolve_plan(ctx, plan, None)
}

/// Run a set of experiments as one shared sweep through an explicit
/// resolver.  Plans the union, dedups it, resolves it, renders every report
/// — no file or stdout side effects.
pub fn run_with(
    experiments: &[&dyn Experiment],
    ctx: &PlanContext,
    resolver: &dyn PointResolver,
) -> EngineOutcome {
    let plans: Vec<Vec<PlannedPoint>> = experiments.iter().map(|e| e.plan(ctx)).collect();
    let planned: usize = plans.iter().map(Vec::len).sum();
    let unique = dedup_plan(plans.into_iter().flatten().collect());
    let (results, resolve_stats) = resolver.resolve(ctx, &unique);
    let reports = experiments
        .iter()
        .map(|e| e.render(ctx, &results))
        .collect();
    EngineOutcome {
        reports,
        summary: RunSummary {
            experiments: experiments.iter().map(|e| e.id()).collect(),
            planned,
            unique: unique.len(),
            resolve: resolve_stats,
        },
    }
}

/// Run experiments selected by id through an explicit resolver and return
/// their reports as values — the entry point `earlyreg-serve` and other
/// embedders consume.  Nothing is printed or written.
pub fn run_reports(
    ids: &[String],
    ctx: &PlanContext,
    resolver: &dyn PointResolver,
) -> Result<EngineOutcome, String> {
    let experiments = select(ids)?;
    let refs: Vec<&dyn Experiment> = experiments.iter().map(|e| e.as_ref()).collect();
    Ok(run_with(&refs, ctx, resolver))
}

/// Run experiments for a one-shot caller (the CLI, tests, tools): select by
/// id, run on the given cache, emit every report in `format` under `out`.
/// A thin consumer of [`run_reports`] — all rendering happens on the
/// returned [`Report`] values.
pub fn run_to_files(
    ids: &[String],
    ctx: &PlanContext,
    cache: Option<&PointCache>,
    format: Format,
    out: Option<&Path>,
) -> Result<EngineOutcome, String> {
    let outcome = run_reports(ids, ctx, &CacheResolver { cache })?;
    for report in &outcome.reports {
        emit(report, format, out).map_err(|e| format!("cannot write report: {e}"))?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_workloads::Scale;

    fn smoke_ctx() -> PlanContext {
        PlanContext::new(
            ExperimentOptions {
                scale: Scale::Smoke,
                threads: 2,
                max_instructions: 10_000,
            },
            Scenario::table2(),
        )
    }

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let registry = registry();
        let ids: Vec<&str> = registry.iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            [
                "table1", "table3", "fig03", "sec33", "fig09", "sec44", "fig10", "fig11", "table4",
                "ablation"
            ]
        );
    }

    #[test]
    fn select_resolves_ids_and_rejects_unknown() {
        assert_eq!(
            select(&["all".to_string()]).unwrap().len(),
            registry().len()
        );
        let picked = select(&["fig10".to_string(), "fig03".to_string()]).unwrap();
        // Registry order is preserved regardless of request order.
        assert_eq!(
            picked.iter().map(|e| e.id()).collect::<Vec<_>>(),
            ["fig03", "fig10"]
        );
        assert!(select(&["fig99".to_string()]).is_err());
    }

    #[test]
    fn summary_line_appends_lru_hits_only_when_nonzero() {
        let mut summary = RunSummary {
            experiments: vec!["fig10"],
            planned: 3,
            unique: 2,
            resolve: ResolveStats {
                cache_hits: 1,
                simulated: 1,
                ..ResolveStats::default()
            },
        };
        assert_eq!(
            summary.line(),
            "points: planned=3 unique=2 cache_hits=1 coalesced=0 simulated=1 (experiments: fig10)"
        );
        summary.resolve.lru_hits = 4;
        assert_eq!(
            summary.line(),
            "points: planned=3 unique=2 cache_hits=1 coalesced=0 simulated=1 lru_hits=4 \
             (experiments: fig10)"
        );
    }

    #[test]
    fn planner_dedups_shared_points() {
        let ctx = smoke_ctx();
        // Two plans sharing 10 conventional 48-register points.
        let a = ctx.cross(&[ReleasePolicy::Conventional], &[48, 64]);
        let b = ctx.cross(&[ReleasePolicy::Conventional], &[48]);
        let union: Vec<PlannedPoint> = a.iter().chain(b.iter()).cloned().collect();
        assert_eq!(union.len(), 30);
        let results = simulate(&ctx, &union);
        assert_eq!(results.len(), 20, "the shared points collapse");
        for point in &b {
            assert!(results.stats(point).is_some());
        }
    }

    #[test]
    fn sweep_ordering_is_deterministic_across_thread_counts() {
        // A reversed plan with every point duplicated, resolved with
        // different worker counts: the same digest-keyed statistics every
        // time, one result per unique point — the regression guard for
        // `batch_order` + `run_parallel` under the engine.
        let set = Arc::new(WorkloadSet::new(Scale::Smoke));
        let mut reference: Option<Vec<(u64, SimStats)>> = None;
        for threads in [1, 2, 5] {
            let ctx = PlanContext::with_workloads(
                ExperimentOptions {
                    scale: Scale::Smoke,
                    threads,
                    max_instructions: 10_000,
                },
                Scenario::table2(),
                Arc::clone(&set),
            );
            let mut plan = Vec::new();
            for name in ["compress", "mgrid"] {
                let workload = ctx.workload(name).unwrap().clone();
                for policy in [ReleasePolicy::Extended, ReleasePolicy::Conventional] {
                    for size in [48, 40] {
                        plan.push(ctx.point(&workload, policy, size, size));
                    }
                }
            }
            plan.reverse();
            let unique = plan.len();
            plan.extend(plan.clone());

            let results = simulate(&ctx, &plan);
            assert_eq!(results.len(), unique, "duplicates must be dropped");
            let mut keyed: Vec<(u64, SimStats)> = plan
                .iter()
                .map(|p| {
                    let result = results.get(p).expect("every planned point resolves");
                    assert_eq!(result.point, p.point);
                    (p.digest, result.stats.clone())
                })
                .collect();
            keyed.sort_by_key(|(digest, _)| *digest);
            keyed.dedup_by_key(|(digest, _)| *digest);
            assert_eq!(keyed.len(), unique);
            match &reference {
                None => reference = Some(keyed),
                Some(expected) => assert_eq!(&keyed, expected, "threads={threads}"),
            }
        }
    }

    #[test]
    fn scenario_workloads_select_the_sweep_set() {
        let ctx = smoke_ctx();
        // Default: the paper ten, even though the registry holds more.
        assert_eq!(ctx.workloads().len(), 10);
        assert!(ctx.all_workloads().len() > ctx.workloads().len());
        // Asm kernels stay addressable outside the selection.
        assert!(ctx.workload("matmul").is_some());

        let selected = PlanContext::new(
            ctx.options,
            Scenario::parse("asm", "workloads = matmul, hazard").unwrap(),
        );
        let names: Vec<&str> = selected.workloads().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["matmul", "hazard"]);
        let plan = selected.cross(&[ReleasePolicy::Extended], &[48]);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|p| names.contains(&p.point.workload)));
    }

    #[test]
    fn scenario_overrides_change_point_identity() {
        let ctx = smoke_ctx();
        let tight = PlanContext::new(
            ctx.options,
            Scenario {
                ros_size: Some(64),
                ..Scenario::table2()
            },
        );
        let workload = ctx.workload("swim").unwrap().clone();
        let a = ctx.point(&workload, ReleasePolicy::Extended, 48, 48);
        let b = tight.point(&workload, ReleasePolicy::Extended, 48, 48);
        assert_eq!(a.point, b.point);
        assert_ne!(a.digest, b.digest, "machine overrides must change the key");
        assert_eq!(b.config.ros_size, 64);
    }
}
