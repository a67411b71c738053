"""The serve-mix request generator and its closed-loop HTTP client.

The generator is a pure function of (seed, discovered ids): the ids come
from ``GET /experiments`` and are never written down here, so a newly
registered workload, policy or experiment joins the mix with no edit.
"""

import http.client
import json
import threading
import time

from measure import ratio

# Register-file sizes the /points requests draw from: the paper's Figure 11
# sweep axis (crates/experiments/src/config.rs, FIG11_SIZES).  Sizes are
# machine parameters, not registry ids, so the server cannot list them.
FIG11_SIZES = (40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 160)

POINTS_SHARE = 0.9     # the rest are POST /run
REPEAT_SHARE = 0.5     # share of /points entries that repeat an earlier point
MAX_POINTS = 4         # entries per /points request: 1..MAX_POINTS
MIX_LENGTH = 20000     # requests generated; a run stops at its deadline first

MASK64 = (1 << 64) - 1


class SplitMix64:
    """A tiny seeded generator whose sequence never changes across Python
    versions (unlike ``random``'s derived methods)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def chance(self, p):
        return self.next() < p * (1 << 64)


def discover(catalog):
    """Workload, policy and experiment ids from a ``GET /experiments`` body."""
    ids = {key: [entry["id"] for entry in catalog[key]]
           for key in ("workloads", "policies", "experiments")}
    for key, values in ids.items():
        if not values:
            raise ValueError(f"GET /experiments lists no {key}")
    return ids


def generate(seed, ids, length=MIX_LENGTH):
    """The request sequence: a list of (kind, path, body text)."""
    rng = SplitMix64(seed)
    history = []
    requests = []
    for _ in range(length):
        if rng.chance(POINTS_SHARE):
            points = []
            for _ in range(1 + rng.below(MAX_POINTS)):
                if history and rng.chance(REPEAT_SHARE):
                    point = history[rng.below(len(history))]
                else:
                    size = FIG11_SIZES[rng.below(len(FIG11_SIZES))]
                    point = {
                        "workload": ids["workloads"][rng.below(len(ids["workloads"]))],
                        "policy": ids["policies"][rng.below(len(ids["policies"]))],
                        "phys_int": size,
                        "phys_fp": size,
                    }
                    history.append(point)
                points.append(point)
            body = {"scale": "bench", "points": points}
            requests.append(("points", "/points", json.dumps(body, sort_keys=True)))
        else:
            experiment = ids["experiments"][rng.below(len(ids["experiments"]))]
            body = {"experiments": [experiment], "scale": "smoke"}
            requests.append(("run", "/run", json.dumps(body, sort_keys=True)))
    return requests


def warmup_requests(ids):
    """Set-up requests that build the bench and smoke suites inside the
    server, at a 1-instruction budget whose cache keys the mix never uses."""
    point = {"workload": ids["workloads"][0], "policy": ids["policies"][0],
             "phys_int": FIG11_SIZES[0], "phys_fp": FIG11_SIZES[0]}
    return [
        ("points", "/points", json.dumps(
            {"scale": "bench", "max_instructions": 1, "points": [point]}, sort_keys=True)),
        ("run", "/run", json.dumps(
            {"experiments": [ids["experiments"][0]], "scale": "smoke", "max_instructions": 1},
            sort_keys=True)),
    ]


def call(port, method, path, body=None, timeout=120):
    """One request on a fresh connection (the server closes after each)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        return response.status, {k.lower(): v for k, v in response.getheaders()}, payload
    finally:
        connection.close()


class Sample:
    __slots__ = ("index", "kind", "start", "end", "status", "headers", "body")


def closed_loop(port, requests, clients, deadline=None):
    """Send ``requests`` in order from ``clients`` threads, one connection
    each, until the list or the deadline (a ``time.perf_counter`` value) runs
    out.  Each thread takes the next request only when its previous one has
    returned, so the completed requests are always a prefix of the list.
    Returns (samples in request order, wall seconds)."""
    lock = threading.Lock()
    cursor = [0]
    samples = [None] * len(requests)
    errors = []

    def client():
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or (deadline is not None and time.perf_counter() >= deadline):
                    return
                cursor[0] += 1
            kind, path, body = requests[index]
            sample = Sample()
            sample.index, sample.kind = index, kind
            sample.start = time.perf_counter()
            try:
                sample.status, sample.headers, sample.body = call(port, "POST", path, body)
            except OSError as error:
                sample.status, sample.headers, sample.body = 0, {}, b""
                errors.append(f"request {index}: {error}")
            sample.end = time.perf_counter()
            samples[index] = sample

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    done = [s for s in samples if s is not None]
    return done, wall, errors


def header_int(sample, name):
    return int(sample.headers.get(name, "0"))


def tier_counts(samples):
    """Per-point answer sources summed from the /points response headers."""
    points = [s for s in samples if s.kind == "points" and s.status == 200]
    counts = {name: sum(header_int(s, "x-" + name.replace("_", "-")) for s in points)
              for name in ("cache_hits", "lru_hits", "coalesced", "simulated")}
    answered = sum(counts.values())
    counts["hit_ratio"] = ratio(counts["cache_hits"] + counts["lru_hits"], answered)
    return counts
