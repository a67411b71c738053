#!/usr/bin/env python3
"""perfbench: the earlyreg benchmark, end to end and layer by layer.

    python3 perfbench/run.py --workload paper-full|smoke-cycle|serve-mix
                             --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the release binaries and the
tracer (perfbench/tracer) into $CARGO_TARGET_DIR (default .bench_build),
works in .bench_work/, and prints human-readable lines followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured through the release
binaries; with --trace 1 they are the per-layer ones from a traced run of
the same workload.  A failed operation or output check makes the exit code
non-zero.  See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import measure  # noqa: E402
import mix  # noqa: E402
import paper  # noqa: E402

WORKLOADS = ("paper-full", "smoke-cycle", "serve-mix")
# Worker threads for the CLI and client connections / server workers for
# serve-mix: the 2 CPUs of the reference host, fixed so that runs on other
# hosts stay comparable with each other.
JOBS = 2
CLI_SETUPS = 15     # set-ups timed per CLI run; setup_s is their median
SERVE_SETUPS = 5    # server set-ups timed per serve-mix run
MIN_PAIRS = 3       # smoke-cycle pairs run even when --seconds is shorter
WARM_RERUNS = 30    # warm re-runs of the full sweep in paper-full
SAMPLED_ANSWERS = 50  # /points answers compared with the stored stats
# The reference host's speed drifts by tens of percent within minutes, so
# the times of short operations (set-ups, smoke pairs, warm re-runs) are
# scaled to a nominal host speed.  A fixed kernel that shares no code with
# the repository (`earlyreg-perfbench-tracer reference`) runs right after
# each of them, and their times are multiplied by REFERENCE_S / the median
# kernel time of the run.  Times taken over long windows (the full sweep,
# the serve-mix loop) tracked the kernel worse than they tracked nothing,
# and are reported as measured.
REFERENCE_S = 0.070  # kernel time on the reference host

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "paper_gap_fit_pp": "pp",
    "paper_gap_heldout_pp": "pp",
}

PER_LAYER = {
    "workloads.suite_build_s": "s",
    "isa.trace_capture_s": "s",
    "isa.trace_captures": "count",
    "experiments.plan_s": "s",
    "experiments.points_planned": "count",
    "experiments.points_unique": "count",
    "experiments.cache_load_s": "s",
    "experiments.cache_hits": "count",
    "experiments.cache_store_s": "s",
    "experiments.cache_bytes": "B",
    "experiments.render_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "sim.construct_s": "s",
    "sim.run_s": "s",
    "sim.kinstr_per_run_s": "kinstr/s",
    "sim.useful_fetch_ratio": "ratio",
    "sim.mispredicts_per_kinstr": "1/kinstr",
    "sim.l1d_miss_rate": "ratio",
    "core.stall_free_list_per_kinstr": "cycles/kinstr",
    "core.stall_ros_full_per_kinstr": "cycles/kinstr",
    "core.stall_lsq_full_per_kinstr": "cycles/kinstr",
    "core.stall_branches_per_kinstr": "cycles/kinstr",
    "core.idle_share_int": "ratio",
    "core.idle_share_fp": "ratio",
    "core.early_release_share": "ratio",
    "serve.handle_p50_ms": "ms",
    "serve.handle_p99_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.simulated": "count",
    "serve.coalesced": "count",
    "serve.lru_hits": "count",
    "serve.disk_hits": "count",
    "serve.rejected_503": "count",
    "serve.rss_mb": "MB",
    "workloads.self_s": "s",
    "isa.self_s": "s",
    "experiments.self_s": "s",
    "sim.self_s": "s",
    "serve.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

SPANNED_LAYERS = ("workloads", "isa", "experiments", "sim", "serve")


def say(text=""):
    print(text, flush=True)


class Run:
    """State of one benchmark run: paths, binaries and the failure ledger."""

    def __init__(self, root, target, seed, seconds):
        self.root = root
        self.release = os.path.join(target, "release")
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        self.attempted = 0
        self.failures = []
        self.counter = 0
        self.references = []

    def exe(self, name):
        return os.path.join(self.release, name)

    def check(self, ok, what):
        """Count one operation or output check; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            say(f"FAILED: {what}")
        return ok

    def fresh(self, label):
        """A new empty directory under the work directory."""
        self.counter += 1
        path = os.path.join(self.work, f"{self.counter:04d}-{label}")
        os.makedirs(path)
        return path

    def reference(self):
        """One time of the reference kernel, in seconds."""
        _, code, _, log = self.timed([self.exe("earlyreg-perfbench-tracer"), "reference"],
                                     "reference")
        if code != 0:
            raise RuntimeError(f"reference kernel exited {code} (see {log})")
        with open(log) as handle:
            self.references.append(json.loads(handle.read())["elapsed_ns"] / 1e9)
        return self.references[-1]

    def host_factor(self):
        """Nominal over measured host speed: REFERENCE_S / the median
        kernel time so far."""
        return REFERENCE_S / measure.median(self.references)

    def timed(self, argv, label):
        """Run a process to completion: (wall s, exit code, peak RSS MB, log path)."""
        log = os.path.join(self.work, f"{label}.log")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, log


# ---------------------------------------------------------------- build, host


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline",
         "-p", "earlyreg-experiments", "--bin", "earlyreg-exp",
         "-p", "earlyreg-serve", "--bin", "earlyreg-serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")],
    ]
    for argv in commands:
        if subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build failed: {' '.join(argv)}")


def source_digest(root):
    """SHA-256 of the sources the binaries are built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    files = [os.path.join(root, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, names in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_facts(root):
    def output(argv):
        try:
            done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    with open(os.path.join(root, "Cargo.toml")) as handle:
        manifest = handle.read()
    profile = manifest.split("[profile.release]", 1)[-1].split("\n\n", 1)[0].strip()
    return {
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "load_before": os.getloadavg(),
        "rustc": output(["rustc", "-V"]),
        "profile": "release: " + " ".join(profile.split()),
        "commit": (output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(root, ".git"))
                   else None) or "none (not a git checkout)",
        "source_digest": source_digest(root),
    }


# ---------------------------------------------------------------- CLI sweeps


def read_reports(out_dir):
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            reports[name] = handle.read()
    return reports


def report_data(reports):
    return {exp: json.loads(reports[exp + ".json"])["data"] for exp in paper.EXPERIMENTS}


def read_entries(cache_dir):
    raw = {}
    for name in sorted(os.listdir(cache_dir)):
        if not name.startswith("."):
            with open(os.path.join(cache_dir, name), "rb") as handle:
                raw[name] = handle.read()
    return raw


def parse_summary(log):
    """The counters of the CLI's 'points: planned=.. unique=..' line."""
    with open(log) as handle:
        for line in handle:
            if line.startswith("points:"):
                fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
                return {k: int(v) for k, v in fields.items() if v.isdigit()}
    return {}


def cli_setup(run, scale):
    """Median time to get a fresh, empty cache directory and a binary that
    has started, built the suite at ``scale`` and rendered a report with no
    simulation point (the context table)."""
    times = []
    for i in range(CLI_SETUPS):
        start = time.perf_counter()
        run.fresh("cache")
        probe = run.fresh("probe")
        _, code, _, log = run.timed(
            [run.exe("earlyreg-exp"), "run", "table1", "--scale", scale, "--no-cache",
             "--format", "json", "--out", probe], f"setup-{i}")
        times.append(time.perf_counter() - start)
        run.reference()
        run.check(code == 0, f"set-up probe exited {code} (see {log})")
    say(measure.format_summary("setup_s as measured", measure.summarize(times), "s"))
    return measure.median(times)


def cli_sweep(run, scale, cache, out, label):
    """One `earlyreg-exp run all` on ``cache``: (wall, peak RSS MB, summary)."""
    wall, code, rss, log = run.timed(
        [run.exe("earlyreg-exp"), "run", "all", "--scale", scale, "--jobs", str(JOBS),
         "--format", "json", "--cache", cache, "--out", out], label)
    run.check(code == 0, f"{label}: earlyreg-exp exited {code} (see {log})")
    return wall, rss, parse_summary(log)


def check_cold(run, cache, out, summary, label):
    """Output checks on a cold sweep; returns (stored stats, raw reports)."""
    entries = measure.stored_stats(cache)
    run.check(summary.get("simulated") == summary.get("unique") == len(entries) > 0,
              f"{label}: {len(entries)} stored points for summary {summary}")
    bad = [name for name, stats in entries.items() if stats["oracle_violations"] != 0]
    run.check(not bad, f"{label}: oracle violations in {bad[:5]}")
    reports = read_reports(out)
    run.check(all(exp + ".json" in reports for exp in paper.EXPERIMENTS),
              f"{label}: reports missing from {sorted(reports)}")
    return entries, reports


def check_warm(run, summary, reports, cold_reports, label):
    run.check(summary.get("simulated") == 0 and summary.get("cache_hits") == summary.get("unique"),
              f"{label}: warm re-run was not all cache hits: {summary}")
    run.check(reports == cold_reports, f"{label}: warm reports differ from the cold reports")


def gaps(run, data, label):
    try:
        rows, by_set = paper.gap_table(data)
    except (KeyError, ValueError, IndexError) as error:
        run.check(False, f"{label}: paper-gap inputs missing: {error}")
        return {}
    say(f"paper references ({label}):")
    say(paper.format_table(rows, by_set))
    return {"paper_gap_fit_pp": by_set["fit"], "paper_gap_heldout_pp": by_set["heldout"]}


def print_sweep_facts(entries, cold_walls, rss):
    counts = measure.model_counts(entries)
    minstr = counts["committed"] / 1e6
    say(f"sweep_s: p50={measure.median(cold_walls):.4f} s (n={len(cold_walls)}): "
        + " ".join(f"{w:.3f}" for w in cold_walls))
    say(f"sim_minstr_per_s: {minstr / measure.median(cold_walls):.4f} M sim-instr/host-s "
        f"({minstr:.3f} M committed per sweep)")
    say(f"peak_rss_mb: {rss:.1f} MB")
    say(f"stats_digest: {measure.stats_digest(entries)} over {len(entries)} stored points")


def paper_full(run):
    setup = cli_setup(run, "full")
    cache, out = run.fresh("cache"), run.fresh("out")
    cold, rss, summary = cli_sweep(run, "full", cache, out, "cold")
    entries, reports = check_cold(run, cache, out, summary, "cold")
    warm = []
    for i in range(WARM_RERUNS):
        warm_out = run.fresh("warm-out")
        wall, _, warm_summary = cli_sweep(run, "full", cache, warm_out, f"warm-{i}")
        warm.append(wall)
        run.reference()
        check_warm(run, warm_summary, read_reports(warm_out), reports, f"warm-{i}")
    print_sweep_facts(entries, [cold], rss)
    say(f"warm_s as measured: p50={measure.median(warm):.4f} s (n={len(warm)})")
    factor = run.host_factor()
    metrics = {"setup_s": setup * factor, "cold_s": cold, "warm_s": measure.median(warm) * factor}
    metrics.update(gaps(run, report_data(reports), "full scale"))
    return metrics


def smoke_pairs(run, deadline):
    """Cold + warm smoke sweeps, each pair on a fresh cache and followed by
    one reference-kernel run, until the deadline (at least MIN_PAIRS
    pairs): (cold walls, warm walls, peak RSS, the first pair's outputs)."""
    colds, warms, rss = [], [], 0.0
    first = None
    while len(colds) < MIN_PAIRS or time.perf_counter() < deadline:
        k = len(colds)
        cache, out, warm_out = run.fresh("cache"), run.fresh("out"), run.fresh("warm-out")
        cold, peak, summary = cli_sweep(run, "smoke", cache, out, f"cold-{k}")
        entries, reports = check_cold(run, cache, out, summary, f"cold-{k}")
        warm, _, warm_summary = cli_sweep(run, "smoke", cache, warm_out, f"warm-{k}")
        check_warm(run, warm_summary, read_reports(warm_out), reports, f"warm-{k}")
        if first is None:
            first = (entries, reports, read_entries(cache))
        else:
            run.check(reports == first[1], f"pair {k}: cold reports differ from pair 0")
            run.check(entries == first[0], f"pair {k}: stored stats differ from pair 0")
        colds.append(cold)
        warms.append(warm)
        run.reference()
        rss = max(rss, peak)
        # Removed as soon as the pair is checked, so that no run leaves
        # thousands of entries on disk for a later run to delete.
        for directory in (cache, out, warm_out):
            shutil.rmtree(directory)
    return colds, warms, rss, first


def smoke_cycle(run):
    setup = cli_setup(run, "smoke")
    colds, warms, rss, (entries, reports, _) = smoke_pairs(
        run, time.perf_counter() + run.seconds)
    print_sweep_facts(entries, colds, rss)
    say(f"warm_s as measured: p50={measure.median(warms):.4f} s (n={len(warms)})")
    factor = run.host_factor()
    metrics = {"setup_s": setup * factor, "cold_s": measure.median(colds) * factor,
               "warm_s": measure.median(warms) * factor}
    metrics.update(gaps(run, report_data(reports), "smoke scale"))
    return metrics


# ---------------------------------------------------------------- serve


class Server:
    """A running earlyreg-serve on a fresh cache directory."""

    def __init__(self, run, label):
        self.cache = run.fresh("serve-cache")
        port_file = os.path.join(run.fresh("serve-port"), "port")
        self.log = os.path.join(run.work, f"{label}.log")
        start = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [run.exe("earlyreg-serve"), "--port", "0", "--port-file", port_file,
                 "--workers", str(JOBS), "--cache", self.cache, "--allow-shutdown"],
                cwd=run.root, stdout=log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port(port_file)
            self._wait_ready()
            status, _, body = mix.call(self.port, "GET", "/experiments")
            if status != 200:
                raise RuntimeError(f"GET /experiments answered {status}")
            self.ids = mix.discover(json.loads(body))
            for _, path, request in mix.warmup_requests(self.ids):
                status, _, _ = mix.call(self.port, "POST", path, request)
                if status != 200:
                    raise RuntimeError(f"warm-up POST {path} answered {status}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_port(self, port_file, timeout=30.0):
        limit = time.perf_counter() + timeout
        while time.perf_counter() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(f"earlyreg-serve exited {self.proc.returncode} (see {self.log})")
            try:
                with open(port_file) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.001)
        raise RuntimeError("earlyreg-serve wrote no port file")

    def _wait_ready(self, timeout=30.0):
        limit = time.perf_counter() + timeout
        while time.perf_counter() < limit:
            try:
                if mix.call(self.port, "GET", "/readyz", timeout=5)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.001)
        raise RuntimeError("earlyreg-serve never became ready")

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            mix.call(self.port, "POST", "/shutdown", "{}", timeout=10)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode


def start_servers(run, count):
    """Set a server up ``count`` times, keeping only the last one running:
    (server, median set-up seconds)."""
    times = []
    server = None
    for i in range(count):
        if server is not None:
            run.check(server.stop() == 0, "earlyreg-serve did not shut down cleanly")
        server = Server(run, f"serve-{i}")
        times.append(server.setup_s)
        run.reference()
    say(measure.format_summary("setup_s as measured", measure.summarize(times), "s"))
    return server, measure.median(times)


def check_samples(run, samples, errors, label):
    for error in errors:
        run.check(False, f"{label}: {error}")
    for sample in samples:
        run.check(sample.status == 200, f"{label}: request {sample.index} ({sample.kind}) "
                                        f"answered {sample.status}")


def check_answers(run, server, samples):
    """Single-point /points answers must equal the stored stats for the
    same cache key (the X-Point-Digest header names the entry)."""
    checked = 0
    for sample in samples:
        if checked == SAMPLED_ANSWERS:
            break
        digest = sample.headers.get("x-point-digest")
        if sample.kind != "points" or sample.status != 200 or digest is None:
            continue
        checked += 1
        answer = json.loads(sample.body)["results"][0]["stats"]
        try:
            with open(os.path.join(server.cache, digest + ".json")) as handle:
                stored = json.load(handle)["stats"]
        except OSError:
            stored = None
        run.check(answer == stored, f"request {sample.index}: answer differs from stored {digest}")


def serve_gaps(run, server):
    """Paper gaps of the reports the server renders at smoke scale."""
    missing = [e for e in paper.EXPERIMENTS if e not in server.ids["experiments"]]
    if not run.check(not missing, f"server lists no {missing}"):
        return {}
    body = json.dumps({"experiments": list(paper.EXPERIMENTS), "scale": "smoke"})
    status, _, payload = mix.call(server.port, "POST", "/run", body)
    if not run.check(status == 200, f"POST /run of the paper experiments answered {status}"):
        return {}
    data = {r["experiment"]: r["data"] for r in json.loads(payload)["reports"]}
    return gaps(run, data, "smoke scale, served")


def latencies(samples, kind, predicate=lambda s: True):
    return [s.end - s.start for s in samples if s.kind == kind and s.status == 200 and predicate(s)]


def is_miss(sample):
    return mix.header_int(sample, "x-simulated") > 0


def is_hit(sample):
    return not is_miss(sample) and mix.header_int(sample, "x-coalesced") == 0


def print_serve_facts(run, samples, wall, server):
    points = latencies(samples, "points")
    say(measure.format_summary("points_ms", measure.summarize(points), "ms", 1e3))
    say(measure.format_summary("run_ms", measure.summarize(latencies(samples, "run")), "ms", 1e3))
    say(f"serve_rps: {len(samples) / wall:.2f} req/s ({len(samples)} requests in {wall:.3f} s, "
        f"{JOBS} closed-loop clients)")
    tiers = mix.tier_counts(samples)
    say("tiers: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in tiers.items()))
    say(f"serve_rss_mb: {server.rss_mb():.1f} MB")
    entries = measure.stored_stats(server.cache)
    bad = [name for name, stats in entries.items() if stats["oracle_violations"] != 0]
    run.check(not bad, f"serve: oracle violations in {bad[:5]}")
    say(f"stats_digest: {measure.stats_digest(entries)} over {len(entries)} stored points "
        "(depends on how far the closed loop got)")
    return entries


def serve_mix(run):
    server, setup = start_servers(run, SERVE_SETUPS)
    try:
        requests = mix.generate(run.seed, server.ids)
        samples, wall, errors = mix.closed_loop(
            server.port, requests, JOBS, time.perf_counter() + run.seconds)
        check_samples(run, samples, errors, "mix")
        check_answers(run, server, samples)
        print_serve_facts(run, samples, wall, server)
        metrics = {
            "setup_s": setup * run.host_factor(),
            "cold_s": measure.median(latencies(samples, "points", is_miss)),
            "warm_s": measure.median(latencies(samples, "points", is_hit)),
        }
        metrics.update(serve_gaps(run, server))
    finally:
        run.check(server.stop() == 0, "earlyreg-serve did not shut down cleanly")
    return metrics


# ---------------------------------------------------------------- traced runs


def traced_sweep(run, scale, cache, out, label):
    """One tracer sweep: (wall, spans, counters)."""
    spans_path = os.path.join(run.work, f"{label}.spans.jsonl")
    wall, code, _, log = run.timed(
        [run.exe("earlyreg-perfbench-tracer"), "sweep", "--scale", scale, "--jobs", str(JOBS),
         "--cache", cache, "--out", out, "--spans", spans_path], label)
    run.check(code == 0, f"{label}: tracer exited {code} (see {log})")
    with open(log) as handle:
        counters = json.loads(handle.read().strip().splitlines()[-1]) if code == 0 else {}
    return wall, measure.read_spans(spans_path) if code == 0 else [], counters


def sweep_layers(spans, counters):
    """Per-layer metrics of one traced sweep."""
    resolve = measure.span_seconds(spans, "experiments.resolve")
    points = measure.span_seconds(spans, "sim.point")
    return {
        "workloads.suite_build_s": measure.span_seconds(spans, "workloads.suite_build"),
        "isa.trace_capture_s": measure.span_seconds(spans, "isa.decoded_trace_for"),
        "isa.trace_captures": counters.get("trace_captures", 0),
        "experiments.plan_s": measure.span_seconds(spans, "experiments.plan"),
        "experiments.points_planned": counters.get("points_planned", 0),
        "experiments.points_unique": counters.get("points_unique", 0),
        "experiments.cache_load_s": measure.span_seconds(spans, "experiments.cache_load"),
        "experiments.cache_hits": counters.get("cache_hits", 0),
        "experiments.cache_store_s": measure.span_seconds(spans, "experiments.cache_store"),
        "experiments.cache_bytes": counters.get("cache_bytes", 0),
        "experiments.render_s": measure.span_seconds(spans, "experiments.render"),
        "experiments.parallel_efficiency": measure.ratio(
            points, resolve * counters.get("threads", JOBS)),
        "sim.construct_s": measure.span_seconds(spans, "sim.construct"),
        "sim.run_s": measure.span_seconds(spans, "sim.run"),
        **{f"{layer}.self_s": seconds
           for layer, seconds in measure.layer_self_seconds(spans).items()
           if layer in SPANNED_LAYERS},
    }


def keep_spans(run, label, spans):
    """Keep the last traced run's spans per workload under .bench_work/traces."""
    directory = os.path.join(run.root, ".bench_work", "traces")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{label}.jsonl"), "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def finish_layers(layers, entries):
    counts = measure.model_counts(entries)
    layers["sim.kinstr_per_run_s"] = measure.ratio(
        counts["committed"] / 1000.0, layers.get("sim.run_s", 0.0))
    layers.update({k: v for k, v in counts.items() if k in PER_LAYER})
    return layers


def say_overhead(label, traced, untraced):
    say(f"tracing overhead ({label}): traced {traced:.4f} s - untraced {untraced:.4f} s "
        f"= {traced - untraced:+.4f} s ({measure.ratio(traced - untraced, untraced):+.2%})")
    return {"trace.overhead_s": traced - untraced,
            "trace.overhead_share": measure.ratio(traced - untraced, untraced)}


def paper_full_traced(run):
    cache, out = run.fresh("cache"), run.fresh("out")
    untraced, _, summary = cli_sweep(run, "full", cache, out, "untraced")
    entries, reports = check_cold(run, cache, out, summary, "untraced")
    t_cache, t_out = run.fresh("traced-cache"), run.fresh("traced-out")
    traced, spans, counters = traced_sweep(run, "full", t_cache, t_out, "traced")
    run.check(read_reports(t_out) == reports, "traced reports differ from the untraced run's")
    run.check(read_entries(t_cache) == read_entries(cache),
              "traced stored SimStats differ from the untraced run's")
    keep_spans(run, "paper-full", spans)
    layers = finish_layers(sweep_layers(spans, counters), entries)
    layers.update(say_overhead("cold sweep", traced, untraced))
    return layers


def smoke_cycle_traced(run):
    colds, warms, _, (entries, reports, raw) = smoke_pairs(
        run, time.perf_counter() + run.seconds / 2.0)
    per_pair, t_colds, t_warms = [], [], []
    for k in range(len(colds)):
        cache, out, warm_out = run.fresh("cache"), run.fresh("out"), run.fresh("warm-out")
        cold, cold_spans, cold_counters = traced_sweep(run, "smoke", cache, out, f"traced-cold-{k}")
        run.check(read_reports(out) == reports, f"traced pair {k}: reports differ from untraced")
        run.check(read_entries(cache) == raw, f"traced pair {k}: stored SimStats differ")
        warm, warm_spans, warm_counters = traced_sweep(
            run, "smoke", cache, warm_out, f"traced-warm-{k}")
        run.check(read_reports(warm_out) == reports, f"traced pair {k}: warm reports differ")
        cold_layers = sweep_layers(cold_spans, cold_counters)
        warm_layers = sweep_layers(warm_spans, warm_counters)
        # Cache loads and hits come from the warm half, everything else that
        # simulates or stores from the cold half; build, plan and render
        # happen in both and are summed over the pair, like the self times.
        pair = dict(cold_layers)
        for name in ("experiments.cache_load_s", "experiments.cache_hits"):
            pair[name] = warm_layers[name]
        for name in ("workloads.suite_build_s", "experiments.plan_s", "experiments.render_s"):
            pair[name] = cold_layers[name] + warm_layers[name]
        for layer in SPANNED_LAYERS:
            name = f"{layer}.self_s"
            pair[name] = cold_layers.get(name, 0.0) + warm_layers.get(name, 0.0)
        per_pair.append(pair)
        t_colds.append(cold)
        t_warms.append(warm)
        keep_spans(run, "smoke-cycle", cold_spans + warm_spans)
        for directory in (cache, out, warm_out):
            shutil.rmtree(directory)
    layers = {name: measure.median([p.get(name, 0.0) for p in per_pair]) for name in per_pair[0]}
    layers = finish_layers(layers, entries)
    say_overhead("warm re-run", measure.median(t_warms), measure.median(warms))
    layers.update(say_overhead("cold sweep", measure.median(t_colds), measure.median(colds)))
    return layers


def client_spans(samples):
    return [{"name": "client." + s.kind, "start_ns": int(s.start * 1e9), "end_ns": int(s.end * 1e9),
             "id": 1_000_000 + s.index, "parent": 0, "trace": str(s.index)} for s in samples]


def serve_mix_traced(run):
    server, _ = start_servers(run, 1)
    try:
        requests = mix.generate(run.seed, server.ids)
        untraced, wall_u, errors = mix.closed_loop(
            server.port, requests, JOBS, time.perf_counter() + run.seconds / 2.0)
        check_samples(run, untraced, errors, "untraced mix")
    finally:
        run.check(server.stop() == 0, "earlyreg-serve did not shut down cleanly")

    # The same completed prefix again on a fresh server, recording spans.
    replay = requests[:len(untraced)]
    server, _ = start_servers(run, 1)
    try:
        traced, wall_t, errors = mix.closed_loop(server.port, replay, JOBS)
        check_samples(run, traced, errors, "traced mix")
        check_answers(run, server, traced)
        entries = print_serve_facts(run, traced, wall_t, server)
        rss = server.rss_mb()
        ids = server.ids
    finally:
        run.check(server.stop() == 0, "earlyreg-serve did not shut down cleanly")

    # And once more in process, through Service::handle with no HTTP.
    requests_path = os.path.join(run.work, "requests.jsonl")
    with open(requests_path, "w") as handle:
        for _, path, body in mix.warmup_requests(ids) + replay:
            handle.write(json.dumps({"method": "POST", "path": path, "body": body}) + "\n")
    touched = sorted({p["workload"] for kind, _, body in replay if kind == "points"
                      for p in json.loads(body)["points"]})
    spans_path = os.path.join(run.work, "inproc.spans.jsonl")
    responses_path = os.path.join(run.work, "inproc.responses.jsonl")
    _, code, _, log = run.timed(
        [run.exe("earlyreg-perfbench-tracer"), "serve", "--requests", requests_path,
         "--warmup", str(len(mix.warmup_requests(ids))), "--clients", str(JOBS),
         "--capture", ",".join(touched), "--cache", run.fresh("inproc-cache"),
         "--spans", spans_path, "--responses", responses_path], "inproc")
    if not run.check(code == 0, f"in-process replay exited {code} (see {log})"):
        return {}
    with open(log) as handle:
        counters = json.loads(handle.read().strip().splitlines()[-1])
    spans = measure.read_spans(spans_path)
    with open(responses_path) as handle:
        answers = [json.loads(line) for line in handle]

    for u, t, a in zip(untraced, traced, answers):
        if u.kind == "points":
            run.check(u.body == t.body and a["status"] == 200 and a["body"].encode() == u.body,
                      f"request {u.index}: /points answers differ between the three replays")
    keep_spans(run, "serve-mix", spans + client_spans(traced))

    handled = [s for s in spans if s["name"] == "serve.handle"]
    handle_points = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in handled
                     if replay[int(s["trace"])][0] == "points"]
    handle = measure.summarize(handle_points)
    say(measure.format_summary("serve.handle (in-process /points)", handle, "ms", 1e3))
    client_points = latencies(traced, "points")
    tiers = mix.tier_counts(traced)
    layers = {
        "workloads.suite_build_s": measure.span_seconds(spans, "workloads.suite_build"),
        "isa.trace_capture_s": measure.span_seconds(spans, "isa.decoded_trace_for"),
        "isa.trace_captures": counters["trace_captures"],
        "serve.handle_p50_ms": handle["p50"] * 1e3,
        "serve.handle_p99_ms": measure.percentile(handle_points, 99) * 1e3,
        "serve.transport_p50_ms": (measure.median(client_points) - handle["p50"]) * 1e3,
        "serve.hit_p50_ms": measure.median(latencies(traced, "points", is_hit)) * 1e3,
        "serve.miss_p50_ms": measure.median(latencies(traced, "points", is_miss)) * 1e3,
        "serve.hit_ratio": tiers["hit_ratio"],
        "serve.simulated": tiers["simulated"],
        "serve.coalesced": tiers["coalesced"],
        "serve.lru_hits": tiers["lru_hits"],
        "serve.disk_hits": tiers["cache_hits"],
        "serve.rejected_503": sum(1 for s in traced if s.status == 503),
        "serve.rss_mb": rss,
        "serve.self_s": measure.span_seconds(spans, "serve.handle"),
        "workloads.self_s": measure.span_seconds(spans, "workloads.suite_build"),
        "isa.self_s": measure.span_seconds(spans, "isa.decoded_trace_for"),
    }
    layers = finish_layers(layers, entries)
    layers.update(say_overhead(f"{len(replay)} requests over HTTP", wall_t, wall_u))
    return layers


# ---------------------------------------------------------------- main


def self_tests():
    """The benchmark's own self-tests, quietly; True when all pass."""
    import io
    import unittest

    import test_perfbench

    suite = unittest.defaultTestLoader.loadTestsFromModule(test_perfbench)
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            print(trace, file=sys.stderr)
    return result.wasSuccessful()


RUNNERS = {
    ("paper-full", 0): paper_full,
    ("smoke-cycle", 0): smoke_cycle,
    ("serve-mix", 0): serve_mix,
    ("paper-full", 1): paper_full_traced,
    ("smoke-cycle", 1): smoke_cycle_traced,
    ("serve-mix", 1): serve_mix_traced,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        sys.exit("perfbench: run from the earlyreg repository root (no Cargo.toml and crates/ here)")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)

    run = Run(root, target, args.seed, args.seconds)
    facts = host_facts(root)
    os.makedirs(run.work)
    run.check(self_tests(), "self-tests failed (run python3 perfbench/test_perfbench.py)")
    try:
        try:
            values = RUNNERS[(args.workload, args.trace)](run)
        except (RuntimeError, OSError, ValueError, KeyError) as error:
            run.check(False, f"{args.workload}: {type(error).__name__}: {error}")
            values = {}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    facts["load_after"] = os.getloadavg()
    if run.references:
        facts["reference_kernel_ms"] = measure.summarize([r * 1e3 for r in run.references])
        facts["time_scale"] = run.host_factor()
    say("host: " + json.dumps(facts, sort_keys=True))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            # A layer this workload does not exercise reads 0 in a traced
            # run; a missing end-to-end value is a failure.
            run.check(args.trace == 1, f"no value for {name}")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
        say(f"{name}: {value:.6g} {unit}")
    say(f"fail_ratio: {len(run.failures)}/{run.attempted} = "
        f"{measure.ratio(len(run.failures), run.attempted):.4f} ratio")
    print(json.dumps({"correct": not run.failures, "attempted": max(run.attempted, 1),
                      "failed": len(run.failures), "metrics": metrics}), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
