//! Traced in-process runs of the perfbench workloads.
//!
//! ```text
//! earlyreg-perfbench-tracer sweep --scale smoke|bench|full --jobs N
//!                                 --cache DIR --out DIR --spans FILE
//! earlyreg-perfbench-tracer serve --requests FILE --warmup N --clients N
//!                                 --capture ID,ID,... --cache DIR
//!                                 --spans FILE --responses FILE
//! earlyreg-perfbench-tracer reference
//! ```
//!
//! `sweep` does what one `earlyreg-exp run all --format json` does, calling
//! each layer's public functions itself: suite build, plan + dedup, a
//! resolver that mirrors `engine::CacheResolver` (cache load, `batch_order`,
//! `run_parallel` over the misses, store-back), render + emit.  `serve`
//! replays a request list through `Service::handle` on `--clients` threads,
//! with no HTTP in between.
//!
//! `reference` times a fixed two-thread kernel that shares no code with
//! the repository, so the benchmark can tell a slower host from a slower
//! program.
//!
//! Every call of interest is wrapped in a span (name, start, end, id,
//! parent, trace id = point digest or request index).  Spans stay in memory
//! and are written as JSON lines to `--spans` at exit; the last line of
//! stdout is a JSON object of exact counters.

use earlyreg_experiments::engine::{self, PlanContext, PlannedPoint, ResultSet, WorkloadSet};
use earlyreg_experiments::report::{emit, Format};
use earlyreg_experiments::runner::{batch_order, run_parallel, RunResult};
use earlyreg_experiments::{ExperimentOptions, PointCache, Scenario};
use earlyreg_serve::http::Request;
use earlyreg_serve::{Service, ServiceConfig};
use earlyreg_sim::{decoded_trace_for, replay_disabled, RunLimits, Simulator, TRACE_SLACK};
use earlyreg_workloads::Scale;
use serde::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    trace: String,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span; `f` receives the span's id so nested calls can
/// name it as their parent.
fn timed<R>(name: &'static str, parent: u64, trace: &str, f: impl FnOnce(u64) -> R) -> R {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let result = f(id);
    let end_ns = now_ns();
    SPANS.lock().expect("span log poisoned").push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent,
        trace: trace.to_string(),
    });
    result
}

fn write_spans(path: &Path) -> Result<(), String> {
    let spans = SPANS.lock().expect("span log poisoned");
    let mut text = String::new();
    for span in spans.iter() {
        let line = Value::Map(vec![
            ("name".to_string(), Value::Str(span.name.to_string())),
            ("start_ns".to_string(), Value::U64(span.start_ns)),
            ("end_ns".to_string(), Value::U64(span.end_ns)),
            ("id".to_string(), Value::U64(span.id)),
            ("parent".to_string(), Value::U64(span.parent)),
            ("trace".to_string(), Value::Str(span.trace.clone())),
        ]);
        text.push_str(&line.canonical());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_counters(counters: Vec<(&str, u64)>) {
    let map = counters
        .into_iter()
        .map(|(name, value)| (name.to_string(), Value::U64(value)))
        .collect();
    println!("{}", Value::Map(map).canonical());
}

/// `--flag value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.get(name).map(PathBuf::from)
    }

    fn count(&self, name: &str) -> Result<usize, String> {
        let text = self.get(name)?;
        match text.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("--{name} must be a positive integer, got '{text}'")),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => Args::parse(&args[1..]).and_then(|a| sweep(&a)),
        Some("serve") => Args::parse(&args[1..]).and_then(|a| serve(&a)),
        Some("reference") => {
            reference();
            Ok(())
        }
        _ => Err(
            "usage: earlyreg-perfbench-tracer sweep|serve|reference --flag value ...".to_string(),
        ),
    };
    if let Err(message) = result {
        eprintln!("{message}");
        exit(2);
    }
}

/// One traced `earlyreg-exp run all --format json --cache DIR --out DIR`.
fn sweep(args: &Args) -> Result<(), String> {
    let options = ExperimentOptions {
        scale: ExperimentOptions::parse_scale(args.get("scale")?)?,
        threads: args.count("jobs")?,
        ..ExperimentOptions::default()
    };
    let cache = PointCache::new(args.path("cache")?);
    let out = args.path("out")?;
    let mut counters = Vec::new();

    timed("sweep", 0, "sweep", |root| -> Result<(), String> {
        let set = timed("workloads.suite_build", root, "", |_| {
            Arc::new(WorkloadSet::new(options.scale))
        });
        let ctx = PlanContext::with_workloads(options, Scenario::table2(), set);
        let (experiments, planned, unique) = timed("experiments.plan", root, "", |_| {
            let experiments = engine::select(&["all".to_string()])?;
            let plans: Vec<Vec<PlannedPoint>> = experiments.iter().map(|e| e.plan(&ctx)).collect();
            let planned: usize = plans.iter().map(Vec::len).sum();
            let unique = engine::dedup_plan(plans.into_iter().flatten().collect());
            Ok::<_, String>((experiments, planned, unique))
        })?;
        let (results, resolved) = timed("experiments.resolve", root, "", |span| {
            resolve(&ctx, &unique, &cache, span)
        });
        for experiment in &experiments {
            timed("experiments.render", root, experiment.id(), |_| {
                let report = experiment.render(&ctx, &results);
                emit(&report, Format::Json, Some(&out)).map(|_| ())
            })
            .map_err(|e| format!("cannot write report: {e}"))?;
        }
        counters.push(("points_planned", planned as u64));
        counters.push(("points_unique", unique.len() as u64));
        counters.push(("threads", ctx.options.effective_threads() as u64));
        counters.extend(resolved);
        Ok(())
    })?;

    write_spans(&args.path("spans")?)?;
    print_counters(counters);
    Ok(())
}

/// `engine::CacheResolver::resolve` with a span around every layer call.
fn resolve(
    ctx: &PlanContext,
    unique: &[PlannedPoint],
    cache: &PointCache,
    parent: u64,
) -> (ResultSet, Vec<(&'static str, u64)>) {
    let mut results = ResultSet::default();
    let mut misses = Vec::new();
    let mut hits = 0;
    for planned in unique {
        let digest = format!("{:016x}", planned.digest);
        match timed("experiments.cache_load", parent, &digest, |_| {
            cache.load(&planned.key)
        }) {
            Some(stats) => {
                hits += 1;
                results.insert(
                    planned.digest,
                    RunResult {
                        point: planned.point,
                        stats,
                    },
                );
            }
            None => misses.push(planned),
        }
    }

    let order = batch_order(&misses, |p| p.point.workload);
    let misses: Vec<&PlannedPoint> = order.into_iter().map(|i| misses[i]).collect();
    // Distinct traces handed out: the memo returns one shared trace per
    // program, so this counts captures that were kept.
    let traces = Mutex::new(BTreeSet::new());
    let simulated = run_parallel(ctx.options.effective_threads(), &misses, |planned| {
        simulate(ctx, planned, parent, &traces)
    });

    let mut stored_bytes = 0;
    for (planned, result) in misses.iter().zip(simulated) {
        let digest = format!("{:016x}", planned.digest);
        match timed("experiments.cache_store", parent, &digest, |_| {
            cache.store(&planned.key, &result.stats)
        }) {
            Ok(path) => stored_bytes += std::fs::metadata(path).map_or(0, |m| m.len()),
            Err(error) => eprintln!("warning: cannot cache point {:?}: {error}", planned.point),
        }
        results.insert(planned.digest, result);
    }
    let captures = traces.into_inner().expect("trace set poisoned").len();
    let counters = vec![
        ("cache_hits", hits),
        ("cache_bytes", stored_bytes),
        ("trace_captures", captures as u64),
    ];
    (results, counters)
}

/// `runner::run_configured_point`, one span per layer call.  The oracle
/// check is left to the caller, which reads every stored `SimStats`.
fn simulate(
    ctx: &PlanContext,
    planned: &PlannedPoint,
    parent: u64,
    traces: &Mutex<BTreeSet<usize>>,
) -> RunResult {
    let digest = format!("{:016x}", planned.digest);
    timed("sim.point", parent, &digest, |span| {
        let workload = ctx
            .workload(planned.point.workload)
            .expect("planned workloads come from the context's suite");
        let budget = ctx.options.max_instructions;
        let mut sim = if replay_disabled() {
            timed("sim.construct", span, &digest, |_| {
                Simulator::new(planned.config, workload.program.clone())
            })
        } else {
            let trace = timed("isa.decoded_trace_for", span, &digest, |_| {
                decoded_trace_for(&workload.program, budget.saturating_add(TRACE_SLACK))
            });
            traces
                .lock()
                .expect("trace set poisoned")
                .insert(Arc::as_ptr(&trace) as usize);
            timed("sim.construct", span, &digest, |_| {
                Simulator::with_replay(planned.config, workload.program.clone(), trace)
            })
        };
        let stats = timed("sim.run", span, &digest, |_| {
            sim.run(RunLimits::instructions(budget))
        });
        RunResult {
            point: planned.point,
            stats,
        }
    })
}

/// One request of the replayed list (JSON lines: method, path, body).
struct Replayed {
    method: String,
    path: String,
    body: String,
}

fn read_requests(path: &Path) -> Result<Vec<Replayed>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(index, line)| {
            let value = serde::json::parse(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), index + 1))?;
            let field = |name: &str| {
                value
                    .get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}:{}: missing '{name}'", path.display(), index + 1))
            };
            Ok(Replayed {
                method: field("method")?,
                path: field("path")?,
                body: field("body")?,
            })
        })
        .collect()
}

/// Replay a request list through `Service::handle`: the first `--warmup`
/// lines one by one (the server's set-up), the rest as a closed loop on
/// `--clients` threads, each taking the next request when its previous one
/// returns.  Before that, time what the service does lazily inside its
/// first requests: the bench-scale suite build and the trace capture of
/// each program named by `--capture`.
fn serve(args: &Args) -> Result<(), String> {
    let requests = read_requests(&args.path("requests")?)?;
    let warmup: usize = args
        .get("warmup")?
        .parse()
        .map_err(|_| "--warmup must be a count")?;
    let clients = args.count("clients")?;
    let config = ServiceConfig::default();
    let budget = config.max_instructions_limit.saturating_add(TRACE_SLACK);
    let set = timed("workloads.suite_build", 0, "bench", |_| {
        WorkloadSet::new(Scale::Bench)
    });
    let mut captured = BTreeSet::new();
    for id in args.get("capture")?.split(',').filter(|id| !id.is_empty()) {
        let workload = set
            .workload(id)
            .ok_or_else(|| format!("--capture: unknown workload '{id}'"))?;
        let trace = timed("isa.decoded_trace_for", 0, id, |_| {
            decoded_trace_for(&workload.program, budget)
        });
        captured.insert(Arc::as_ptr(&trace) as usize);
    }
    drop(set);

    let config = ServiceConfig {
        cache_dir: Some(args.path("cache")?),
        // What `earlyreg-serve --workers N` resolves on an N-CPU host.
        sim_threads: 1,
        ..config
    };
    let service = Service::new(config, Arc::new(AtomicBool::new(false)));
    let to_request = |r: &Replayed| Request {
        method: r.method.clone(),
        path: r.path.clone(),
        headers: vec![("content-length".to_string(), r.body.len().to_string())],
        body: r.body.clone().into_bytes(),
    };

    let warmup = warmup.min(requests.len());
    for (index, replayed) in requests[..warmup].iter().enumerate() {
        let status = service.handle(&to_request(replayed)).status;
        if status != 200 {
            return Err(format!("warm-up request {index} answered {status}"));
        }
    }

    let mix = &requests[warmup..];
    let answers: Vec<Mutex<Option<(u16, String)>>> = mix.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    timed("serve.replay", 0, "", |root| {
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(replayed) = mix.get(index) else {
                        break;
                    };
                    let request = to_request(replayed);
                    let response = timed("serve.handle", root, &index.to_string(), |_| {
                        service.handle(&request)
                    });
                    *answers[index].lock().expect("answer slot poisoned") =
                        Some((response.status, response.body));
                });
            }
        });
    });

    let mut lines = String::new();
    for slot in answers {
        let (status, body) = slot
            .into_inner()
            .expect("answer slot poisoned")
            .expect("every request was replayed");
        let line = Value::Map(vec![
            ("status".to_string(), Value::U64(u64::from(status))),
            ("body".to_string(), Value::Str(body)),
        ]);
        lines.push_str(&line.canonical());
        lines.push('\n');
    }
    let responses = args.path("responses")?;
    std::fs::write(&responses, lines)
        .map_err(|e| format!("cannot write {}: {e}", responses.display()))?;

    write_spans(&args.path("spans")?)?;
    print_counters(vec![
        ("requests", mix.len() as u64),
        ("trace_captures", captured.len() as u64),
    ]);
    Ok(())
}

/// Steps of the reference kernel per thread (about 70 ms on the reference
/// host).
const REFERENCE_STEPS: u64 = 10_000_000;

/// Random reads and writes over a 4 MiB table with data-dependent branches
/// — the kind of work a cycle-level simulator does — on two threads, like
/// the measured sweeps.
fn reference() {
    fn kernel(seed: u64) -> u64 {
        let mut table = vec![0u64; 1 << 19];
        let mut x = seed | 1;
        let mut acc = 0u64;
        for step in 0..REFERENCE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (table.len() - 1);
            if x & 3 == 0 {
                table[slot] = table[slot].wrapping_add(step);
            } else {
                acc = acc.wrapping_add(table[slot] ^ x);
            }
        }
        acc
    }
    let start = Instant::now();
    let checksum = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2u64)
            .map(|k| scope.spawn(move || kernel(std::hint::black_box(k + 7))))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("reference thread panicked"))
            .fold(0, |a, b| a ^ b)
    });
    print_counters(vec![
        ("elapsed_ns", start.elapsed().as_nanos() as u64),
        ("checksum", checksum),
    ]);
}
