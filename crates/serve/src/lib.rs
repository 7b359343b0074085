#![warn(missing_docs)]

//! `baryon-serve` — simulation-as-a-service for the Baryon reproduction.
//!
//! A zero-dependency HTTP/1.1 job server on [`std::net::TcpListener`]:
//! clients `POST` simulation jobs (single runs or workloads × controllers
//! grids, as JSON), a fixed worker pool executes them through the same
//! [`baryon_bench::spec`] path `baryon-cli run` uses, and clients poll for
//! status and fetch `RunResult` JSON. The queue is bounded: when it fills,
//! submissions get `503` + `Retry-After` instead of unbounded buffering.
//!
//! # Modules
//!
//! * [`serve_core`] — every job fact of the process as plain data
//!   ([`serve_core::ServeCore`]: job records, the bounded FIFO, counters,
//!   progress snapshots, retention), property-tested in
//!   `tests/serve_core_props.rs`.
//! * [`server`] — the shell around it: one `Mutex<ServeCore>` and one
//!   `Condvar`, the accept loop, routes, workers and deadlines.
//! * [`http`] — the HTTP/1.1 reader and writer, and the one connection
//!   loop a shard and the fleet coordinator share.
//! * [`journal`] — the write-ahead job journal and its replay.
//! * [`progress`] — progress snapshots and the event-stream framing.
//! * [`client`] and [`error`] — the typed client and the error envelope.
//!
//! # Endpoints
//!
//! | Method & path             | Purpose                                        |
//! |---------------------------|------------------------------------------------|
//! | `POST /v1/jobs`           | Submit a run or grid spec; `202` + job ID      |
//! | `GET /v1/jobs/<id>`       | Status + result document once done             |
//! | `GET /v1/jobs/<id>/events` | Chunked stream of progress events until settled |
//! | `POST /v1/jobs/<id>/cancel` | Cancel a still-queued job                    |
//! | `GET /v1/metrics`         | Serve-layer counters (queue depth, latency…)   |
//! | `GET /v1/metrics?format=wire` | Full-fidelity registry bytes (hex) for fleet merging |
//! | `GET /v1/healthz`         | Liveness probe (no metrics snapshot allocated) |
//! | `POST /v1/shutdown`       | Graceful shutdown, draining accepted jobs      |
//!
//! Every non-2xx response carries the uniform error envelope
//! `{"error": {"code": "...", "message": "..."}}`; see [`error::ErrorCode`]
//! for the machine-readable codes. `GET /v1/metrics` serves the unified
//! telemetry registry document (`{"counters", "gauges", "summaries"}`).
//!
//! # Example
//!
//! ```
//! use baryon_serve::{client, Server, ServeConfig};
//!
//! let server = Server::bind(ServeConfig {
//!     port: 0, // ephemeral
//!     workers: 1,
//!     queue_depth: 4,
//!     ..ServeConfig::default()
//! })
//! .expect("bind loopback");
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let health = client::request(addr, "GET", "/v1/healthz", None).expect("reachable");
//! assert_eq!(health.status, 200);
//!
//! client::request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
//! handle.join().expect("no panic").expect("clean exit");
//! ```
//!
//! Determinism carries over the wire: a job's result document is
//! byte-identical to `baryon-cli run --json` with the same spec, because
//! both funnel through [`baryon_bench::spec::RunSpec::execute`].

pub mod client;
pub mod error;
pub mod http;
pub mod journal;
pub mod progress;
pub mod serve_core;
pub mod server;

pub use error::{ApiError, ErrorCode};
pub use serve_core::Metrics;
pub use server::{ServeConfig, Server};
