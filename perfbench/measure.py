"""Pure measurement helpers: percentiles, span self time, stored-stats sums.

Nothing here runs a process or touches the network, so the self-tests in
``test_perfbench.py`` cover it directly.
"""

import hashlib
import json
import os

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def rank(p, n):
    """Nearest rank of percentile ``p`` (to 0.1) among ``n`` samples, in
    integers so that 99.9 % of 10000 is exactly 9990."""
    tenths = round(p * 10)
    return max(1, (tenths * n + 999) // 1000)


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(p, len(ordered)) - 1]


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND of
    ``n`` samples beyond it, or None when even the lowest has too few."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median plus the highest well-supported tail percentile, with n."""
    n = len(values)
    summary = {"n": n, "p50": median(values) if values else None}
    p = tail_percentile(n)
    if p is not None:
        summary["tail_p"] = p
        summary["tail"] = percentile(values, p)
    return summary


def format_summary(name, summary, unit, scale=1.0):
    if summary["p50"] is None:
        return f"{name}: no samples"
    text = f"{name}: p50={summary['p50'] * scale:.3f} {unit}"
    if "tail" in summary:
        text += f" p{summary['tail_p']:g}={summary['tail'] * scale:.3f} {unit}"
    return text + f" (n={summary['n']})"


def self_times(spans):
    """Self time per span id: duration minus the union of its children's
    intervals clipped to it (children may run on several threads at once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda s: s["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def layer_self_seconds(spans):
    """Self time summed per layer, the layer being the span name's prefix."""
    own = self_times(spans)
    layers = {}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + own[span["id"]]
    return {layer: ns / 1e9 for layer, ns in layers.items()}


def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def read_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def stored_stats(cache_dir):
    """Every SimStats in a point-cache directory, keyed by entry file name."""
    entries = {}
    for name in sorted(os.listdir(cache_dir)):
        if name.endswith(".json") and not name.startswith("."):
            with open(os.path.join(cache_dir, name)) as handle:
                entries[name] = json.load(handle)["stats"]
    return entries


def stats_digest(entries):
    """SHA-256 over the sorted stored SimStats, to confirm two runs agree."""
    digest = hashlib.sha256()
    for name in sorted(entries):
        digest.update(name.encode())
        digest.update(json.dumps(entries[name], sort_keys=True).encode())
    return digest.hexdigest()[:16]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def model_counts(entries):
    """Per-layer model counts summed over stored SimStats: ``sim`` (front
    end, predictor, memory) and ``core`` (rename stalls, occupancy,
    release)."""
    total = {"committed": 0, "fetched": 0, "mispredicted": 0, "l1d_hits": 0,
             "l1d_misses": 0, "free_list": 0, "ros_full": 0, "lsq_full": 0,
             "pending_branches": 0, "early": 0, "allocations": 0}
    occupancy = {"int": [0, 0], "fp": [0, 0]}  # [idle, allocated] register-cycles
    for stats in entries.values():
        total["committed"] += stats["committed"]
        total["fetched"] += stats["fetched"]
        total["mispredicted"] += stats["mispredicted_branches"]
        total["l1d_hits"] += stats["memory"]["l1d"]["hits"]
        total["l1d_misses"] += stats["memory"]["l1d"]["misses"]
        for field in ("free_list", "ros_full", "lsq_full", "pending_branches"):
            total[field] += stats["rename_stalls"][field]
        for cls in ("int", "fp"):
            release = stats["release"][cls]
            total["early"] += (release["early_at_lu_commit"] + release["immediate_at_decode"]
                               + release["branch_confirm_releases"] + release["reuses"])
            total["allocations"] += release["allocations"]
            occ = stats["occupancy_" + cls]
            occupancy[cls][0] += occ["idle_cycles"]
            occupancy[cls][1] += occ["empty_cycles"] + occ["ready_cycles"] + occ["idle_cycles"]
    kinstr = total["committed"] / 1000.0
    return {
        "committed": total["committed"],
        "sim.useful_fetch_ratio": ratio(total["committed"], total["fetched"]),
        "sim.mispredicts_per_kinstr": ratio(total["mispredicted"], kinstr),
        "sim.l1d_miss_rate": ratio(total["l1d_misses"], total["l1d_hits"] + total["l1d_misses"]),
        "core.stall_free_list_per_kinstr": ratio(total["free_list"], kinstr),
        "core.stall_ros_full_per_kinstr": ratio(total["ros_full"], kinstr),
        "core.stall_lsq_full_per_kinstr": ratio(total["lsq_full"], kinstr),
        "core.stall_branches_per_kinstr": ratio(total["pending_branches"], kinstr),
        "core.idle_share_int": ratio(*occupancy["int"]),
        "core.idle_share_fp": ratio(*occupancy["fp"]),
        "core.early_release_share": ratio(total["early"], total["allocations"]),
    }
