//! End-to-end tests of `earlyreg-serve` over real TCP connections: routing,
//! cache bit-identity, single-flight dedup of concurrent identical
//! requests, backpressure and graceful shutdown.

use earlyreg_serve::{start, ServeConfig, ServiceConfig};
use serde::value::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// A parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    fn json(&self) -> Value {
        serde::json::parse(&self.body)
            .unwrap_or_else(|error| panic!("invalid JSON body: {error}\n{}", self.body))
    }
}

/// Issue one request over a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: earlyreg\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");

    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("earlyreg-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(cache_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_capacity: 64,
        service: ServiceConfig {
            cache_dir,
            sim_threads: 1,
            allow_shutdown: true,
            ..ServiceConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn cache_entries(dir: &PathBuf) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect(),
        Err(_) => Vec::new(),
    }
}

const SWIM_POINT: &str = r#"{"scale":"smoke","max_instructions":5000,
  "points":[{"workload":"swim","policy":"extended","phys_int":48,"phys_fp":48}]}"#;

#[test]
fn healthz_and_experiments_respond() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    // Probes append query strings; routing must ignore them.
    assert_eq!(request(addr, "GET", "/healthz?probe=1", "").status, 200);
    let health_json = health.json();
    assert_eq!(
        health_json.get("status").and_then(Value::as_str),
        Some("ok")
    );
    assert_eq!(
        health_json.get("simulations").and_then(Value::as_u64),
        Some(0)
    );
    // The exact counter set: a key added or left behind fails here.
    let Value::Map(entries) = &health_json else {
        panic!("/healthz answers a JSON object: {}", health.body);
    };
    let mut keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    let mut expected = [
        "status",
        "simulations",
        "coalesced",
        "requests",
        "inflight_points",
        "cache",
        "lru_hits",
        "lru_entries",
    ];
    expected.sort_unstable();
    assert_eq!(keys, expected);

    let experiments = request(addr, "GET", "/experiments", "");
    assert_eq!(experiments.status, 200);
    let listing = experiments.json();
    let listed = listing
        .get("experiments")
        .and_then(Value::as_seq)
        .expect("experiments array")
        .len();
    assert_eq!(listed, 10, "the full registry is listed");
    assert!(experiments.body.contains("\"fig10\""));

    // The accepted release policies are listed from the core registry, one
    // entry per registered scheme.
    let policies = listing
        .get("policies")
        .and_then(Value::as_seq)
        .expect("policies array");
    let listed_ids: Vec<&str> = policies
        .iter()
        .map(|p| p.get("id").and_then(Value::as_str).expect("policy id"))
        .collect();
    assert_eq!(listed_ids, earlyreg_core::registry::ids());

    // The workloads are listed from the workload registry, one entry per
    // registered kernel (synthetic and assembled alike).
    let workloads = listing
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads array");
    let listed_ids: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("id").and_then(Value::as_str).expect("workload id"))
        .collect();
    assert_eq!(listed_ids, earlyreg_workloads::registry::ids());
    for w in workloads {
        let class = w.get("class").and_then(Value::as_str).expect("class");
        assert!(class == "int" || class == "fp");
        assert!(w.get("paper").is_some());
    }

    server.stop();
}

/// Every workload id the registry (and therefore `GET /experiments`) lists
/// is accepted by `POST /points` — discovered from the listing, not
/// hard-coded, so a new registration extends this test automatically.
#[test]
fn every_registered_workload_round_trips_through_points() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let listing = request(addr, "GET", "/experiments", "").json();
    let ids: Vec<String> = listing
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads array")
        .iter()
        .map(|w| w.get("id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert!(ids.contains(&"swim".to_string()));
    assert!(ids.contains(&"matmul".to_string()));
    for id in ids {
        let body = format!(
            r#"{{"scale":"smoke","max_instructions":2000,
               "points":[{{"workload":"{id}","policy":"extended","phys_int":64,"phys_fp":64}}]}}"#
        );
        let reply = request(addr, "POST", "/points", &body);
        assert_eq!(reply.status, 200, "workload '{id}': {}", reply.body);
        assert!(reply.body.contains(&format!("\"workload\":\"{id}\"")));
    }
    server.stop();
}

/// Every policy id the registry (and therefore `GET /experiments`) lists is
/// accepted by `POST /points` — the serve ↔ registry round-trip the CI
/// policy-matrix smoke also exercises — and an unregistered id is a 400
/// naming the registered ones.
#[test]
fn every_registered_policy_round_trips_through_points() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let listing = request(addr, "GET", "/experiments", "").json();
    let ids: Vec<String> = listing
        .get("policies")
        .and_then(Value::as_seq)
        .expect("policies array")
        .iter()
        .map(|p| p.get("id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(ids, ["conv", "basic", "extended"]);
    for id in &ids {
        let body = format!(
            r#"{{"scale":"smoke","max_instructions":2000,
               "points":[{{"workload":"perl","policy":"{id}","phys_int":64,"phys_fp":64}}]}}"#
        );
        let reply = request(addr, "POST", "/points", &body);
        assert_eq!(reply.status, 200, "policy '{id}': {}", reply.body);
        assert!(reply.body.contains(&format!("\"policy\":\"{id}\"")));
    }
    let unregistered = request(
        addr,
        "POST",
        "/points",
        r#"{"points":[{"workload":"perl","policy":"oracle","phys_int":64,"phys_fp":64}]}"#,
    );
    assert_eq!(unregistered.status, 400, "{}", unregistered.body);
    for id in &ids {
        assert!(
            unregistered.body.contains(id.as_str()),
            "{}",
            unregistered.body
        );
    }
    server.stop();
}

#[test]
fn routing_rejects_unknown_paths_methods_and_bad_json() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "DELETE", "/points", "").status, 405);
    assert_eq!(request(addr, "POST", "/points", "{not json").status, 400);
    assert_eq!(request(addr, "POST", "/points", "{}").status, 400); // no points
    let unknown_workload =
        r#"{"points":[{"workload":"doom","policy":"basic","phys_int":48,"phys_fp":48}]}"#;
    let reply = request(addr, "POST", "/points", unknown_workload);
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("unknown workload 'doom'"),
        "{}",
        reply.body
    );
    for id in earlyreg_workloads::registry::ids() {
        assert!(
            reply.body.contains(id),
            "the 400 body must list '{id}': {}",
            reply.body
        );
    }
    // An unknown policy is a 400 (not a 500) whose message enumerates the
    // registered ids so the client can self-correct.
    let bad_policy =
        r#"{"points":[{"workload":"swim","policy":"yolo","phys_int":48,"phys_fp":48}]}"#;
    let reply = request(addr, "POST", "/points", bad_policy);
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("unknown policy 'yolo'"),
        "{}",
        reply.body
    );
    for id in earlyreg_core::registry::ids() {
        assert!(
            reply.body.contains(id),
            "the 400 body must list '{id}': {}",
            reply.body
        );
    }

    server.stop();
}

/// The service accepts the same policy spellings as `earlyreg-exp point
/// --policy` (one shared parser): abbreviations and any casing.
#[test]
fn policy_aliases_match_the_cli() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;
    for policy in ["ext", "Extended", "EXTENDED", "conv"] {
        let body = format!(
            r#"{{"scale":"smoke","max_instructions":2000,
               "points":[{{"workload":"perl","policy":"{policy}","phys_int":64,"phys_fp":64}}]}}"#
        );
        let reply = request(addr, "POST", "/points", &body);
        assert_eq!(reply.status, 200, "policy '{policy}': {}", reply.body);
    }
    server.stop();
}

/// An oversized body is answered 413 — and the client actually receives it
/// (the server drains the unread bytes before closing instead of resetting
/// the connection).
#[test]
fn oversized_body_receives_a_413() {
    let server = start(test_config(None)).expect("bind");
    let huge = "x".repeat(2 * 1024 * 1024);
    let reply = request(server.addr, "POST", "/points", &huge);
    assert_eq!(reply.status, 413);
    assert!(reply.body.contains("exceeds"));
    server.stop();
}

/// `Expect: 100-continue` clients (curl with >1 KiB bodies) receive the
/// interim response instead of stalling out their expect timeout.
#[test]
fn expect_100_continue_is_answered() {
    let server = start(test_config(None)).expect("bind");
    let body = r#"{"scale":"smoke","max_instructions":2000,
      "points":[{"workload":"perl","policy":"basic","phys_int":64,"phys_fp":64}]}"#;

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let head = format!(
        "POST /points HTTP/1.1\r\nHost: earlyreg\r\nExpect: 100-continue\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    // A strict client would wait for the interim response here; sending the
    // body immediately is also legal and keeps the test deterministic.
    stream.write_all(body.as_bytes()).expect("send body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read responses");

    assert!(
        raw.starts_with("HTTP/1.1 100 Continue\r\n\r\n"),
        "interim response first: {raw:?}"
    );
    let after = &raw["HTTP/1.1 100 Continue\r\n\r\n".len()..];
    assert!(
        after.starts_with("HTTP/1.1 200 OK"),
        "then the real one: {after:?}"
    );
    assert!(after.contains("\"results\""));
    server.stop();
}

/// Contract: a warm `POST /points` body is bit-identical to the
/// cold one, the point is simulated exactly once, and the counters move to
/// the headers (not the body) so identity holds.  A server restarted on the
/// same cache directory answers it from disk, bit-identically again.
#[test]
fn warm_points_response_is_bit_identical_to_cold() {
    let cache_dir = temp_cache("warmcold");
    let server = start(test_config(Some(cache_dir.clone()))).expect("bind");
    let addr = server.addr;

    let cold = request(addr, "POST", "/points", SWIM_POINT);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache-hits"), Some("0"));
    assert_eq!(cold.header("x-simulated"), Some("1"));
    // Single-point responses carry the digest naming the point's cache entry.
    assert_eq!(
        cold.header("x-point-digest").map(str::len),
        Some(16),
        "single-point responses carry a 16-hex-digit digest"
    );

    // The warm request is answered by the in-memory LRU tier, which sits
    // in front of the disk cache.
    let warm = request(addr, "POST", "/points", SWIM_POINT);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-lru-hits"), Some("1"));
    assert_eq!(warm.header("x-cache-hits"), Some("0"));
    assert_eq!(warm.header("x-simulated"), Some("0"));
    assert_eq!(
        warm.header("x-point-digest"),
        cold.header("x-point-digest"),
        "tier changes must not change identity"
    );

    assert_eq!(cold.body, warm.body, "warm body must be bit-identical");
    assert_eq!(server.service().simulations(), 1, "one simulation total");
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), 1, "one cache entry: {entries:?}");
    assert!(entries[0].ends_with(".json"));

    // The response carries real statistics.
    let stats = cold.json();
    let results = stats.get("results").and_then(Value::as_seq).unwrap();
    assert_eq!(results.len(), 1);
    let committed = results[0]
        .get("stats")
        .and_then(|s| s.get("committed"))
        .and_then(Value::as_u64)
        .expect("committed counter");
    assert!(committed > 1_000, "committed = {committed}");
    server.stop();

    // A new server on the same cache directory starts with an empty LRU, so
    // the disk tier answers, with the same digest and the same bytes.
    let restarted = start(test_config(Some(cache_dir.clone()))).expect("bind");
    let disk = request(restarted.addr, "POST", "/points", SWIM_POINT);
    assert_eq!(disk.status, 200, "{}", disk.body);
    assert_eq!(disk.header("x-cache-hits"), Some("1"));
    assert_eq!(disk.header("x-lru-hits"), Some("0"));
    assert_eq!(disk.header("x-simulated"), Some("0"));
    assert_eq!(disk.header("x-point-digest"), cold.header("x-point-digest"));
    assert_eq!(cold.body, disk.body, "disk body must be bit-identical");
    assert_eq!(restarted.service().simulations(), 0);

    restarted.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Contract: M concurrent identical requests perform exactly
/// one simulation — proven by the cache-dir entry count and the service's
/// simulation counter.
#[test]
fn concurrent_identical_points_simulate_exactly_once() {
    let cache_dir = temp_cache("singleflight");
    let server = start(test_config(Some(cache_dir.clone()))).expect("bind");
    let addr = server.addr;

    const CONCURRENT: usize = 8;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONCURRENT)
            .map(|_| {
                scope.spawn(move || {
                    let reply = request(addr, "POST", "/points", SWIM_POINT);
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    reply.body
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "every response is bit-identical");
    }
    assert_eq!(
        server.service().simulations(),
        1,
        "identical in-flight points must simulate exactly once"
    );
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), 1, "one cache entry: {entries:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Distinct points in one batch resolve independently and in request order,
/// and duplicates within a batch collapse.
#[test]
fn batches_resolve_in_request_order_and_dedup_within() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let body = r#"{"scale":"smoke","max_instructions":3000,"points":[
      {"workload":"perl","policy":"conventional","phys_int":64,"phys_fp":64},
      {"workload":"swim","policy":"extended","phys_int":48,"phys_fp":48},
      {"workload":"perl","policy":"conventional","phys_int":64,"phys_fp":64}
    ]}"#;
    let reply = request(addr, "POST", "/points", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = reply.json();
    let results = json.get("results").and_then(Value::as_seq).unwrap();
    assert_eq!(results.len(), 3, "duplicates are answered, not dropped");
    let workload = |index: usize| {
        results[index]
            .get("point")
            .and_then(|p| p.get("workload"))
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(workload(0), "perl");
    assert_eq!(workload(1), "swim");
    assert_eq!(workload(2), "perl");
    assert_eq!(
        results[0], results[2],
        "duplicate points answer identically"
    );
    assert_eq!(reply.header("x-simulated"), Some("2"), "2 unique points");
    assert_eq!(server.service().simulations(), 2);

    server.stop();
}

/// `POST /run` produces the same report envelopes the CLI's JSON backend
/// writes, plus the planner summary.
#[test]
fn run_endpoint_returns_report_envelopes() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let reply = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["table1","table3"],"scale":"smoke","max_instructions":3000}"#,
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let json = reply.json();
    let reports = json.get("reports").and_then(Value::as_seq).unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(
        reports[0].get("experiment").and_then(Value::as_str),
        Some("table1")
    );
    assert!(reports[0].get("data").is_some());
    let summary = json.get("summary").expect("summary");
    assert_eq!(summary.get("planned").and_then(Value::as_u64), Some(0));

    // Unknown experiment ids are a client error.
    let bad = request(addr, "POST", "/run", r#"{"experiments":["fig99"]}"#);
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("unknown experiment"));

    // A scenario override must parse — and a broken one is rejected.
    let with_scenario = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["table1"],"scenario":"ros_size = 64"}"#,
    );
    assert_eq!(with_scenario.status, 200);
    let bad_scenario = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["table1"],"scenario":"bogus_key = 1"}"#,
    );
    assert_eq!(bad_scenario.status, 400);
    // A sweep size below the architectural minimum is caught at parse time,
    // not by a panicking sweep worker.
    let bad_sweep = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["fig11"],"scenario":"sweep_sizes = 10"}"#,
    );
    assert_eq!(bad_sweep.status, 400, "{}", bad_sweep.body);
    assert!(
        bad_sweep.body.contains("at 10 registers"),
        "{}",
        bad_sweep.body
    );

    // A scenario can retarget the figure sweeps at any registered policy
    // set; an unknown policy name in it is a 400 naming the registered ids.
    let with_policies = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["fig10"],"scale":"smoke","max_instructions":2000,
            "scenario":"policies = extended, conv"}"#,
    );
    assert_eq!(with_policies.status, 200, "{}", with_policies.body);
    assert!(
        with_policies
            .body
            .contains(r#""policies":["extended","conv"]"#),
        "{}",
        with_policies.body
    );
    let bad_policy_scenario = request(
        addr,
        "POST",
        "/run",
        r#"{"experiments":["fig10"],"scenario":"policies = conv, warp9"}"#,
    );
    assert_eq!(bad_policy_scenario.status, 400);
    assert!(
        bad_policy_scenario.body.contains("unknown policy 'warp9'"),
        "{}",
        bad_policy_scenario.body
    );
    assert!(bad_policy_scenario
        .body
        .contains("registered: conv, basic, extended"));

    server.stop();
}

/// A full request queue sheds load with `503` + `Retry-After` instead of
/// queueing without bound.
#[test]
fn full_queue_answers_503() {
    let config = ServeConfig {
        queue_capacity: 0, // every request overflows the queue immediately
        ..test_config(None)
    };
    let server = start(config).expect("bind");
    let reply = request(server.addr, "GET", "/healthz", "");
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(reply.body.contains("queue"));
    server.stop();
}

/// `POST /shutdown` (when allowed) stops the server: the accept loop exits,
/// `join` returns, and the port stops answering.
#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let server = start(test_config(None)).expect("bind");
    let addr = server.addr;

    let reply = request(addr, "POST", "/shutdown", "");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("shutting down"));
    server.join(); // must return: the accept loop saw the flag

    // The listener is gone; a fresh connection must fail (give the OS a
    // moment to tear the socket down).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port must stop answering after shutdown"
    );
}

/// Readiness is distinct from liveness: once draining begins, `/readyz`
/// answers `503` while `/healthz` stays `200` and — with a drain grace
/// window configured — the listener keeps serving real requests, so a load
/// balancer can deroute the node before its socket closes.
#[test]
fn readyz_flips_to_503_during_the_drain_window() {
    let config = ServeConfig {
        drain_grace: std::time::Duration::from_millis(600),
        ..test_config(None)
    };
    let server = start(config).expect("bind");
    let addr = server.addr;

    let ready = request(addr, "GET", "/readyz", "");
    assert_eq!(ready.status, 200);
    assert!(ready.body.contains("\"ready\""), "{}", ready.body);

    let begun = std::time::Instant::now();
    assert_eq!(request(addr, "POST", "/shutdown", "").status, 200);

    // Inside the grace window: still accepting, but no longer ready.
    let draining = request(addr, "GET", "/readyz", "");
    assert_eq!(draining.status, 503, "draining nodes are not ready");
    assert!(draining.body.contains("\"draining\""), "{}", draining.body);
    assert_eq!(
        request(addr, "GET", "/healthz", "").status,
        200,
        "liveness must hold while draining"
    );
    assert_eq!(
        request(addr, "POST", "/points", SWIM_POINT).status,
        200,
        "requests racing the shutdown are served, not reset"
    );

    server.join(); // returns once the window ends and workers drain
    assert!(
        begun.elapsed() >= std::time::Duration::from_millis(600),
        "the listener must honour the full grace window"
    );
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err(),
        "after the window the port stops answering"
    );
}

/// Without `--allow-shutdown` the endpoint is refused.
#[test]
fn shutdown_endpoint_is_disabled_by_default() {
    let config = ServeConfig {
        service: ServiceConfig {
            cache_dir: None,
            ..ServiceConfig::default()
        },
        ..test_config(None)
    };
    assert!(!config.service.allow_shutdown);
    let server = start(config).expect("bind");
    let reply = request(server.addr, "POST", "/shutdown", "");
    assert_eq!(reply.status, 403);
    // The server is still alive.
    assert_eq!(request(server.addr, "GET", "/healthz", "").status, 200);
    server.stop();
}

/// Run `stop()` on a helper thread; false when it has not returned within
/// 10 s, so a waker that cannot reach the listener fails instead of hanging.
fn stops_within_10s(server: earlyreg_serve::RunningServer) -> bool {
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(std::time::Duration::from_secs(10))
        .is_ok()
}

/// The accept loop blocks in `accept`; stopping wakes it by connecting to
/// the listener's own address, which for an unspecified bind (`0.0.0.0`)
/// must be loopback.  Both a server that served a request and one that
/// never saw a connection stop.
#[test]
fn unspecified_address_server_stops_through_the_loopback_waker() {
    let unspecified = || ServeConfig {
        addr: "0.0.0.0".to_string(),
        ..test_config(None)
    };
    let server = start(unspecified()).expect("bind");
    let local = SocketAddr::from(([127, 0, 0, 1], server.addr.port()));
    assert_eq!(request(local, "GET", "/healthz", "").status, 200);
    assert!(
        stops_within_10s(server),
        "a served 0.0.0.0 server must stop"
    );

    let idle = start(unspecified()).expect("bind");
    assert!(stops_within_10s(idle), "an idle 0.0.0.0 server must stop");
}

/// No sleep on the request path: 50 sequential requests on fresh
/// connections finish far inside one 10 ms poll per request.
#[test]
fn sequential_requests_do_not_wait_on_a_poll() {
    let server = start(test_config(None)).expect("bind");
    let begun = std::time::Instant::now();
    for _ in 0..50 {
        assert_eq!(request(server.addr, "GET", "/healthz", "").status, 200);
    }
    let elapsed = begun.elapsed();
    server.stop();
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "50 sequential /healthz took {elapsed:?}"
    );
}
