//! `baryon-fleet` — sharded multi-process serving for Baryon.
//!
//! One coordinator process fronts N `baryon-serve` worker shards (child
//! processes, each with its own journal directory), giving the simulator
//! a horizontally scaled, crash-tolerant job service:
//!
//! * **Dispatch** — every fleet job is a list of cells ([`router`]). Each
//!   shard worker has one dispatch slot that pulls the next cell while its
//!   shard is in rotation and follows it to its end, so a cell runs on
//!   whichever shard has a free worker; a grid's cells gather back
//!   ([`baryon_bench::spec::JobSpec::gather`]) into the byte-identical
//!   single-process result document.
//! * **QoS** — per-client in-flight quotas (`429 quota_exceeded`) and a
//!   two-level interactive/batch dispatch queue with per-class bounds and
//!   `Retry-After` ([`quota`]).
//! * **Supervision** — shards are health-checked and restarted in place;
//!   a restarted shard replays its write-ahead journal and resumes
//!   interrupted runs from checkpoints, so a mid-sweep `SIGKILL` costs
//!   latency, never results ([`shard::ShardSet`]).
//! * **Streaming** — `GET /v1/jobs/<id>/events` at the coordinator
//!   proxies the executing shard's chunked progress stream for single
//!   runs (IDs rewritten, monotonicity preserved across restarts) and
//!   synthesizes cell-completion progress for grids.
//! * **Telemetry** — `GET /v1/metrics` merges every shard's
//!   full-fidelity wire registry into one fleet document under
//!   `shard<i>.` namespaces, alongside the coordinator's own `fleet.*`
//!   counters.
//! * **Fleet ops** — a versioned A/B config subsystem ([`config`]): stage
//!   a validated [`baryon_core::policy::FleetPolicy`] into the non-active
//!   slot, commit it with a rolling shard restart (drain → respawn with
//!   `--policy` → health probe → canary), and roll back the same way. A
//!   failed probe or canary auto-rolls the fleet back; every generation
//!   is stamped into results and telemetry.
//!
//! # HTTP surface (coordinator)
//!
//! | Method | Path                        | Purpose                               |
//! |--------|-----------------------------|---------------------------------------|
//! | GET    | `/v1/healthz`               | liveness + shard count                |
//! | GET    | `/v1/metrics`               | fleet + per-shard merged registry     |
//! | POST   | `/v1/jobs`                  | submit (headers: `x-baryon-class`, `x-baryon-client`) |
//! | GET    | `/v1/jobs/<id>`             | fleet job status / result             |
//! | GET    | `/v1/jobs/<id>/events`      | chunked progress event stream         |
//! | POST   | `/v1/jobs/<id>/cancel`      | cancel a still-queued fleet job       |
//! | POST   | `/v1/shutdown`              | drain and stop coordinator + shards   |
//! | GET    | `/v1/admin/config`          | config slots, generations, history    |
//! | POST   | `/v1/admin/config/stage`    | validate + persist a candidate policy |
//! | POST   | `/v1/admin/config/commit`   | rolling restart onto the staged slot  |
//! | POST   | `/v1/admin/config/rollback` | rolling restart onto the previous slot|

pub mod config;
pub mod coordinator;
pub mod harness;
pub mod quota;
pub mod router;
pub mod shard;

pub use config::SlotMachine;
pub use coordinator::{Fleet, FleetConfig, FleetController};
pub use shard::ShardLauncher;
