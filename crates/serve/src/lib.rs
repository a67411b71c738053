//! # earlyreg-serve
//!
//! A dependency-free HTTP/1.1 JSON service over the experiment engine of the
//! ICPP'02 early-register-release reproduction.  Every simulation point is a
//! pure function of its cache key, so the service can cache and deduplicate
//! aggressively:
//!
//! * **on-disk [`PointCache`]** (shared with `earlyreg-exp`) answers warm
//!   points with bit-identical statistics;
//! * **single-flight dedup** ([`singleflight`]) makes identical in-flight
//!   points simulate exactly once — concurrent requests for the same point
//!   wait on the leader's result instead of re-simulating;
//! * a bounded **in-memory LRU** in front of the disk cache answers hot
//!   points without a disk read; every point walks LRU → disk →
//!   single-flight join → local simulation, and the answer is the same
//!   bits whichever step supplied it;
//! * a **fixed worker pool** over `std::net::TcpListener` with a **bounded
//!   request queue** sheds load with `503` instead of queueing unboundedly;
//! * **graceful shutdown** on SIGINT/SIGTERM (or `POST /shutdown` when
//!   enabled): `/readyz` flips to `503`, the listener keeps serving for the
//!   configured drain grace, queued requests drain, exit.
//!
//! Endpoints (see `docs/SERVE.md` for schemas and examples):
//!
//! | method & path      | purpose                                           |
//! |--------------------|---------------------------------------------------|
//! | `GET /healthz`     | liveness plus service counters                    |
//! | `GET /readyz`      | readiness (`503` once draining begins)            |
//! | `GET /experiments` | experiment, policy and workload registries        |
//! | `POST /points`     | raw simulation points → `SimStats`                |
//! | `POST /run`        | experiment ids (+ scenario) → `Report` envelopes  |
//! | `POST /shutdown`   | graceful stop (only with `--allow-shutdown`)      |
//!
//! Everything is `std`-only: no async runtime, no HTTP framework, no signal
//! crate.  The library exposes [`start`] so tests (and embedders) can run
//! the full server in-process on an ephemeral port.
//!
//! [`PointCache`]: earlyreg_experiments::PointCache

pub mod http;
mod lru;
pub mod server;
pub mod service;
pub mod signal;
pub mod singleflight;

pub use server::{start, RunningServer, ServeConfig};
pub use service::{Service, ServiceConfig};
