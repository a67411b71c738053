//! `earlyreg-serve` — the HTTP simulation service.
//!
//! ```text
//! earlyreg-serve [--addr A] [--port P] [--workers N] [--queue N]
//!                [--sim-threads N] [--cache DIR | --no-cache]
//!                [--max-instructions N] [--port-file PATH] [--allow-shutdown]
//!                [--drain-grace-ms N]
//! ```
//!
//! Binds, prints the listening address (port `0` asks the kernel for an
//! ephemeral port; `--port-file` writes the resolved port for scripts),
//! serves until SIGINT/SIGTERM (or `POST /shutdown` with
//! `--allow-shutdown`), then drains and exits cleanly.

use earlyreg_serve::{signal, start, ServeConfig};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: earlyreg-serve [options]
  --addr A              listen address (default 127.0.0.1)
  --port P              listen port (default 0 = ephemeral)
  --workers N           request worker threads (default: min(cpus, 8))
  --queue N             bounded request queue depth (default 64)
  --sim-threads N       simulation threads per request (default: cpus/workers)
  --cache DIR           point cache directory (default target/exp-cache)
  --no-cache            disable the on-disk point cache
  --max-instructions N  cap on per-point instruction budgets (default 5000000)
  --port-file PATH      write the resolved port to PATH after binding
  --allow-shutdown      honour POST /shutdown (tests / CI)
  --drain-grace-ms N    keep accepting for N ms after drain begins while
                        /readyz answers 503 (default 0)
";

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!();
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut port_file: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--port" => match value("--port").parse() {
                Ok(port) => config.port = port,
                Err(_) => fail("invalid --port"),
            },
            "--workers" => match value("--workers").parse() {
                Ok(workers) if workers > 0 => config.workers = workers,
                _ => fail("invalid --workers (must be a positive integer)"),
            },
            "--queue" => match value("--queue").parse() {
                Ok(depth) if depth > 0 => config.queue_capacity = depth,
                _ => fail("invalid --queue (must be a positive integer)"),
            },
            "--sim-threads" => match value("--sim-threads").parse() {
                Ok(threads) if threads > 0 => config.service.sim_threads = threads,
                _ => fail("invalid --sim-threads (must be a positive integer)"),
            },
            "--cache" => config.service.cache_dir = Some(PathBuf::from(value("--cache"))),
            "--no-cache" => config.service.cache_dir = None,
            "--max-instructions" => match value("--max-instructions").parse() {
                Ok(limit) if limit > 0 => config.service.max_instructions_limit = limit,
                _ => fail("invalid --max-instructions"),
            },
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--allow-shutdown" => config.service.allow_shutdown = true,
            "--drain-grace-ms" => match value("--drain-grace-ms").parse() {
                Ok(millis) => config.drain_grace = Duration::from_millis(millis),
                Err(_) => fail("invalid --drain-grace-ms (must be a non-negative integer)"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }

    signal::install();
    let server = match start(config) {
        Ok(server) => server,
        Err(error) => fail(&format!("cannot bind: {error}")),
    };
    println!("earlyreg-serve listening on http://{}", server.addr);
    if let Some(path) = &port_file {
        if let Err(error) = std::fs::write(path, format!("{}\n", server.addr.port())) {
            fail(&format!(
                "cannot write --port-file {}: {error}",
                path.display()
            ));
        }
    }
    server.join();
    println!("earlyreg-serve: shut down cleanly");
}
