//! The job server: accept loop, router, worker pool, shutdown.
//!
//! One thread accepts connections and hands each to a short-lived handler
//! thread; handlers parse requests and either answer immediately (status,
//! metrics) or admit work. A fixed pool of worker threads runs the queued
//! jobs via [`baryon_bench::spec::JobSpec`]. Every job fact lives in one
//! [`ServeCore`] under one `Mutex`, with one `Condvar` that every update
//! notifies: workers wait on it for a job, event streams for progress,
//! and a deadline watchdog for its job to stop running. Backpressure is
//! explicit: a full queue answers `503` with `Retry-After`, never blocking
//! the accept path.

use crate::error::ErrorCode;
use crate::http::{serve_connection, ChunkedWriter, Request, Response};
use crate::journal::{recover, Journal, JournalEvent};
use crate::progress::{end_stream, EventCursor};
use crate::serve_core::{CancelOutcome, JobState, Outcome, Refusal, ServeCore};
use baryon_bench::spec::{resume_from_with, JobSpec, RunSpec, CHECKPOINT_PREFIX};
use baryon_core::checkpoint::Checkpoint;
use baryon_core::policy::FleetPolicy;
use baryon_sim::json::{self, Json};
use baryon_sim::wire;
use std::collections::BTreeSet;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server construction knobs (the CLI's `serve` flags).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` asks the OS for an ephemeral port
    /// (useful in tests — read it back via [`Server::local_addr`]).
    pub port: u16,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it get `503`.
    pub queue_depth: usize,
    /// Per-job wall-clock budget. A job still running past this is marked
    /// `failed` with a timeout reason and its worker moves on to the next
    /// queued job; the stuck runner thread is abandoned (its late result
    /// is discarded). `None` lets jobs run unbounded.
    pub job_deadline: Option<Duration>,
    /// Directory for the write-ahead job journal and per-job checkpoints.
    /// When set, accepted jobs survive a crash: on the next bind with the
    /// same directory, settled jobs are re-installed with their journaled
    /// results, never-started jobs are re-enqueued, and interrupted
    /// single runs resume from their newest checkpoint. `None` keeps the
    /// server fully in-memory.
    pub journal_dir: Option<PathBuf>,
    /// Retain at most this many finished (done / failed / cancelled)
    /// jobs in the table; the oldest beyond it are evicted as new jobs
    /// settle. Queued and running jobs are never evicted.
    pub finished_cap: usize,
    /// The fleet policy this incarnation executes under. Controller
    /// overrides are overlaid onto every run; `job_deadline_ms` /
    /// `checkpoint_every` (when set) take precedence over the fields
    /// above; the policy's generation is stamped into results, metrics
    /// (`serve.policy.generation`) and the journal. `None` is the
    /// baseline and behaves exactly like earlier versions.
    pub policy: Option<FleetPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 8677,
            workers: 2,
            queue_depth: 16,
            job_deadline: None,
            journal_dir: None,
            finished_cap: 256,
            policy: None,
        }
    }
}

/// How many trace operations an interrupted-able (journaled) single run
/// executes between checkpoints; override with
/// `BARYON_SERVE_CHECKPOINT_EVERY`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 20_000;

fn checkpoint_every_from_env() -> u64 {
    std::env::var("BARYON_SERVE_CHECKPOINT_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY)
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    /// Every job fact ([`ServeCore`]).
    core: Mutex<ServeCore>,
    /// Notified after every core update.
    changed: Condvar,
    addr: SocketAddr,
    workers: usize,
    job_deadline: Option<Duration>,
    journal: Option<Journal>,
    journal_dir: Option<PathBuf>,
    checkpoint_every: u64,
    policy: Option<FleetPolicy>,
}

impl Shared {
    /// Fresh server state for `cfg`, listening on `addr`, before recovery.
    fn new(cfg: &ServeConfig, addr: SocketAddr) -> io::Result<Shared> {
        let journal = match &cfg.journal_dir {
            Some(dir) => Some(Journal::open(dir)?),
            None => None,
        };
        // Policy serving limits take precedence over the direct config
        // fields: the rollout distributes one document, not two.
        let job_deadline = cfg
            .policy
            .as_ref()
            .and_then(|p| p.job_deadline_ms)
            .map(Duration::from_millis)
            .or(cfg.job_deadline);
        let checkpoint_every = cfg
            .policy
            .as_ref()
            .and_then(|p| p.checkpoint_every)
            .unwrap_or_else(checkpoint_every_from_env);
        Ok(Shared {
            core: Mutex::new(ServeCore::new(cfg.queue_depth, cfg.finished_cap)),
            changed: Condvar::new(),
            addr,
            workers: cfg.workers,
            job_deadline,
            journal,
            journal_dir: cfg.journal_dir.clone(),
            checkpoint_every,
            policy: cfg.policy.clone(),
        })
    }

    /// The fleet config generation this incarnation executes under.
    fn policy_generation(&self) -> u64 {
        self.policy.as_ref().map_or(0, |p| p.generation)
    }

    /// The core, for reads and for counters nobody waits on.
    fn core(&self) -> MutexGuard<'_, ServeCore> {
        self.core.lock().expect("serve core lock poisoned")
    }

    /// Runs one core update and wakes every waiter.
    fn update<R>(&self, apply: impl FnOnce(&mut ServeCore) -> R) -> R {
        let out = apply(&mut self.core());
        self.changed.notify_all();
        out
    }

    /// Runs a core update that may settle a job, and journals the record
    /// it returns once the lock is released.
    fn settle(&self, apply: impl FnOnce(&mut ServeCore) -> Option<JournalEvent>) {
        if let Some(event) = self.update(apply) {
            self.journal(&event);
        }
    }

    /// Appends to the journal if one is configured. Append failures are
    /// reported but do not fail the request — the in-memory state is still
    /// correct for this incarnation; only crash durability degrades.
    fn journal(&self, event: &JournalEvent) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(event) {
                eprintln!("baryon-serve: journal append failed: {e}");
            }
        }
    }

    /// Blocks until the core hands out a job; `None` once it is closed and
    /// drained.
    fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut core = self.core();
        loop {
            if let Some(job) = core.next_job() {
                return Some(job);
            }
            if core.is_drained() {
                return None;
            }
            core = self.changed.wait(core).expect("serve core lock poisoned");
        }
    }

    /// Blocks up to `timeout` until job `id`'s progress moves past `seq`
    /// or the job settles (or is evicted); says whether it did.
    fn wait_past(&self, id: u64, seq: u64, timeout: Duration) -> bool {
        let (_core, waited) = self
            .changed
            .wait_timeout_while(self.core(), timeout, |core| {
                core.job(id).is_some_and(|job| {
                    !job.state.is_settled() && job.progress.as_ref().map_or(0, |p| p.seq) <= seq
                })
            })
            .expect("serve core lock poisoned");
        !waited.timed_out()
    }
}

/// A bound, running job server (workers already spawned; call
/// [`Server::run`] to start serving connections).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:<port>` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (e.g. port already in use).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_depth` is zero.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        assert!(cfg.workers > 0, "need at least one worker");
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.port))?;
        let shared = Arc::new(Shared::new(&cfg, listener.local_addr()?)?);
        if let Some(dir) = &cfg.journal_dir {
            recover_from_journal(&shared, dir)?;
        }
        // Mark which generation this incarnation journals under, so the
        // journal distinguishes results across rollouts. Generation 0 is
        // the baseline and stays unmarked (byte-identical journals).
        if shared.policy_generation() > 0 {
            shared.journal(&JournalEvent::PolicyGeneration {
                generation: shared.policy_generation(),
            });
        }
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("baryon-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            listener,
            shared,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until `POST /v1/shutdown`, then drains queued and in-flight
    /// jobs and returns.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind; the signature leaves
    /// room for fatal accept-loop errors.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.core().is_closed() {
                break;
            }
            let Ok(stream) = stream else {
                continue; // transient accept error
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                serve_connection(
                    stream,
                    |request| {
                        shared.core().count_request();
                        route(&shared, request)
                    },
                    |id, writer| {
                        shared.core().count_request();
                        stream_events(&shared, id, writer)
                    },
                    || shared.core().is_closed(),
                );
            });
        }
        // Drain: workers exit once the closed core has nothing queued.
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Boot-time recovery: replays the write-ahead journal into the core.
/// Settled jobs come back with their journaled outcomes; never-started and
/// interrupted jobs are queued again, past the queue's capacity if need be
/// (interrupted single runs resume from their newest checkpoint when a
/// worker picks them up). Checkpoint directories of every other job are
/// removed. Runs before the worker pool spawns, so recovered
/// work is queued ahead of anything newly submitted.
fn recover_from_journal(shared: &Shared, dir: &std::path::Path) -> io::Result<()> {
    // Every ID the journal issued belongs to a recovered job, and each
    // recovery floors the ID counter above its own.
    let (jobs, _) = recover(&Journal::replay(dir)?);
    for job in jobs {
        let spec = json::parse(&job.spec_json)
            .map_err(|e| e.to_string())
            .and_then(|doc| JobSpec::from_json(&doc));
        shared.settle(|core| core.recover(job.id, spec, job.state));
    }
    // A `ckpt-<id>/` outlives its job when the process exits before the
    // job's runner removes it (a runner abandoned by its deadline, say).
    // Only the re-queued runs resume from theirs; the rest go.
    let queued: BTreeSet<u64> = shared.core().queued().collect();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let id = name.to_str().and_then(|n| n.strip_prefix("ckpt-"));
        if id
            .and_then(|id| id.parse().ok())
            .is_some_and(|id| !queued.contains(&id))
        {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((id, spec)) = shared.next_job() {
        shared.journal(&JournalEvent::Start { id });
        match shared.job_deadline {
            None => run_job(shared, id, &spec),
            Some(deadline) => run_job_with_deadline(shared, id, spec, deadline),
        }
    }
}

/// Executes a job's spec. With journaling enabled, single runs write
/// rotating checkpoints under `<journal_dir>/ckpt-<id>/` and resume from
/// the newest one left behind by a previous incarnation — the simulator's
/// bit-identical continuation invariant makes the resumed result
/// indistinguishable from an uninterrupted run. Grid jobs restart from
/// scratch: their cells are independent and each is short. Checkpoints
/// are deleted once the job settles.
fn execute_spec(shared: &Shared, id: u64, spec: &JobSpec) -> Result<Json, String> {
    match spec {
        JobSpec::Run(run) => execute_run(shared, id, run),
        JobSpec::Grid(_) => execute_grid(shared, id, spec),
    }
}

/// Executes a single run, publishing [`crate::progress::JobProgress`]
/// snapshots every `checkpoint_every` trace operations. Both observation
/// and checkpointing only watch the run, so the result stays bit-identical
/// to a plain [`RunSpec::execute`].
fn execute_run(shared: &Shared, id: u64, run: &RunSpec) -> Result<Json, String> {
    let ckpt_dir = shared
        .journal_dir
        .as_ref()
        .map(|dir| dir.join(format!("ckpt-{id}")));
    if let Some(dir) = &ckpt_dir {
        // The fallback ladder: newest checkpoint → older rotations → cold
        // re-run (the journal already re-admitted this job). A rung that
        // fails validation or resume is quarantined (renamed `.bad`,
        // counted in `serve.ckpt.quarantined`) and the descent continues;
        // a rotten checkpoint costs replay time, never the job.
        // (An unreadable directory falls straight through to a cold run.)
        while let Ok(scan) = Checkpoint::latest_valid_in(dir, CHECKPOINT_PREFIX) {
            if scan.quarantined > 0 {
                shared.core().count_quarantined(scan.quarantined);
            }
            let Some(path) = scan.newest_valid else {
                break; // ladder exhausted → cold run
            };
            match resume_from_with(&path, shared.policy.as_ref()) {
                Ok((resumed_spec, result)) if resumed_spec == *run => {
                    let _ = std::fs::remove_dir_all(dir);
                    return Ok(result.to_json());
                }
                // A stale checkpoint of some other spec: this directory
                // belonged to a different job; run fresh.
                Ok(_) => break,
                // Framed correctly yet unresumable (or re-read under
                // chaos): quarantine this rung too and descend.
                Err(_) => {
                    shared.core().count_quarantined(1);
                    let bad = path.with_file_name(format!(
                        "{}.bad",
                        path.file_name().and_then(|n| n.to_str()).unwrap_or("ckpt")
                    ));
                    if std::fs::rename(&path, &bad).is_err() {
                        break; // cannot descend safely → cold run
                    }
                }
            }
        }
    }
    let result = run.execute_observed_with(
        shared.checkpoint_every,
        ckpt_dir.as_deref().map(|dir| (dir, 2)),
        &mut |p| {
            shared.update(|core| {
                core.publish(id, |jp| {
                    jp.phase = p.phase.as_str();
                    jp.ops = p.ops;
                    jp.insts_done = p.insts_done;
                    jp.insts_target = p.insts_target;
                    jp.cycles = p.cycles;
                    jp.cells_total = 1;
                });
            });
        },
        shared.policy.as_ref(),
    )?;
    if let Some(dir) = &ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(result.to_json())
}

/// Executes a grid cell by cell, publishing `cells_done` after each — the
/// cell order, the result document, and the first-error semantics are
/// exactly those of [`JobSpec::execute`]. Grid cells restart from scratch
/// after a crash: they are independent and each is short.
fn execute_grid(shared: &Shared, id: u64, spec: &JobSpec) -> Result<Json, String> {
    let cells = spec.cells();
    let total = cells.len() as u64;
    shared.update(|core| {
        core.publish(id, |jp| {
            jp.phase = "measure";
            jp.cells_total = total;
        });
    });
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        results.push(Some(cell.execute_with(shared.policy.as_ref())?.to_json()));
        shared.update(|core| {
            core.publish(id, |jp| {
                jp.cells_done = i as u64 + 1;
                jp.ops = i as u64 + 1;
            });
        });
    }
    spec.gather(results)
}

/// Executes `spec` and settles the job with the outcome, unless its
/// deadline already failed it (the late result is then discarded and no
/// counter moves: a job settles exactly once).
fn run_job(shared: &Shared, id: u64, spec: &JobSpec) {
    let t0 = Instant::now();
    let outcome = match panic::catch_unwind(AssertUnwindSafe(|| execute_spec(shared, id, spec))) {
        Ok(Ok(doc)) => Outcome::Done(doc.render()),
        Ok(Err(error)) => Outcome::Failed(error),
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    };
    let wall_us = t0.elapsed().as_micros() as u64;
    shared.settle(|core| core.finish(id, outcome, wall_us));
}

/// Runs `spec` on a runner thread while the worker waits, up to
/// `deadline`, for the job to stop running. If it is still running then,
/// the job settles failed with a timeout reason and the worker returns to
/// take the next queued job; the stuck runner is abandoned (it cannot be
/// killed, but its eventual result is refused by the core and the thread
/// dies with the process).
fn run_job_with_deadline(shared: &Arc<Shared>, id: u64, spec: JobSpec, deadline: Duration) {
    let runner_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("baryon-serve-job-{id}"))
        .spawn(move || run_job(&runner_shared, id, &spec));
    let (outcome, wall_us) = match spawned {
        Ok(runner) => {
            let (core, waited) = shared
                .changed
                .wait_timeout_while(shared.core(), deadline, |core| {
                    core.job(id).map(|job| job.state) == Some(JobState::Running)
                })
                .expect("serve core lock poisoned");
            drop(core);
            if !waited.timed_out() {
                let _ = runner.join();
                return;
            }
            let reason = format!("deadline exceeded: still running after {deadline:?}");
            (Outcome::TimedOut(reason), deadline.as_micros() as u64)
        }
        // Thread exhaustion must fail this job, not the whole worker.
        Err(e) => (
            Outcome::Failed(format!("cannot spawn job runner thread: {e}")),
            0,
        ),
    };
    shared.settle(|core| core.finish(id, outcome, wall_us));
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned());
    format!("worker panicked: {detail}")
}

/// Streams one JSON event object per line over chunked transfer encoding
/// until the job settles: `progress` events whenever the job's
/// [`crate::progress::JobProgress`] sequence moves (strictly monotonic
/// `seq`/`ops` within a run), `alive` heartbeats across long gaps, and a
/// final `end` event carrying the settled state. An unknown job is a
/// `404`.
fn stream_events(shared: &Shared, id: u64, writer: &mut TcpStream) -> io::Result<()> {
    if shared.core().job(id).is_none() {
        return Response::error(404, ErrorCode::NotFound, "no such job").write_to(writer, true);
    }
    let mut stream = ChunkedWriter::begin(&mut *writer, 200, &[])?;
    let mut cursor = EventCursor::new(id);
    loop {
        let (state, progress) = match shared.core().job(id) {
            Some(job) => (Some(job.state), job.progress.clone()),
            None => (None, None),
        };
        cursor.send_progress(progress.as_ref(), &mut stream)?;
        match state {
            // Evicted mid-stream (retention cap) — close the stream with
            // what we know.
            None => return end_stream(stream, id, "evicted"),
            Some(state) if state.is_settled() => return end_stream(stream, id, state.as_str()),
            Some(_) => cursor.wait(&mut stream, |seq, timeout| {
                shared.wait_past(id, seq, timeout)
            })?,
        }
    }
}

/// Dispatches one request to its endpoint. The query string (if any) only
/// matters to `/v1/metrics` (`?format=wire`); it never participates in
/// path matching.
fn route(shared: &Shared, request: &Request) -> Response {
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => Response::json(200, &Json::obj([("ok", Json::Bool(true))])),
        ("GET", "/v1/metrics") => metrics_response(shared, query),
        ("POST", "/v1/jobs") => submit(shared, &request.body),
        ("POST", "/v1/shutdown") => shutdown(shared),
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return job_route(shared, method, rest);
            }
            if matches!(
                path,
                "/v1/healthz" | "/v1/metrics" | "/v1/jobs" | "/v1/shutdown"
            ) {
                return Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed");
            }
            Response::error(404, ErrorCode::NotFound, "no such endpoint")
        }
    }
}

fn job_route(shared: &Shared, method: &str, rest: &str) -> Response {
    let (id_text, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, ErrorCode::NotFound, "job IDs are integers");
    };
    match (method, action) {
        ("GET", None) => match shared.core().job(id).cloned() {
            Some(record) => Response::json(200, &record.to_json()),
            None => Response::error(404, ErrorCode::NotFound, "no such job"),
        },
        ("POST", Some("cancel")) => match shared.update(|core| core.cancel(id)) {
            Ok(event) => {
                shared.journal(&event);
                Response::json(
                    200,
                    &Json::obj([("id", Json::from(id)), ("state", Json::from("cancelled"))]),
                )
            }
            Err(CancelOutcome::TooLate(state)) => Response::error(
                409,
                ErrorCode::Conflict,
                &format!(
                    "job is {}, only queued jobs can be cancelled",
                    state.as_str()
                ),
            ),
            Err(CancelOutcome::NotFound) => {
                Response::error(404, ErrorCode::NotFound, "no such job")
            }
        },
        (_, None) => Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed"),
        _ => Response::error(404, ErrorCode::NotFound, "no such endpoint"),
    }
}

/// Admission: parse → reserve a queue place → journal the `Submit`
/// record → queue. A full or closed queue refuses before anything is
/// journaled.
fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.core().is_closed() {
        return Response::error(503, ErrorCode::ShuttingDown, "server is shutting down");
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, ErrorCode::BadRequest, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::error(400, ErrorCode::InvalidJson, &format!("invalid JSON: {e}"))
        }
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => {
            return Response::error(
                400,
                ErrorCode::InvalidSpec,
                &format!("invalid job spec: {e}"),
            )
        }
    };
    let id = match shared.core().reserve() {
        Ok(id) => id,
        Err(Refusal::Full) => {
            return Response::error(503, ErrorCode::QueueFull, "queue full, retry later")
                .header("Retry-After", "1")
        }
        Err(Refusal::Closed) => {
            return Response::error(503, ErrorCode::ShuttingDown, "server is shutting down")
        }
    };
    // Write-ahead: the submit record must be durable before the client
    // sees 202. If it cannot be journaled, the submission is refused —
    // an acknowledged job that would vanish in a crash is worse than a
    // retry.
    if let Some(journal) = &shared.journal {
        let spec_json = spec.to_json().render();
        if let Err(e) = journal.append(&JournalEvent::Submit { id, spec_json }) {
            shared.update(ServeCore::unreserve);
            return Response::error(
                500,
                ErrorCode::Internal,
                &format!("cannot journal submission: {e}"),
            );
        }
    }
    shared.update(|core| core.admit(id, spec));
    Response::json(
        202,
        &Json::obj([("id", Json::from(id)), ("state", Json::from("queued"))]),
    )
}

/// `GET /v1/metrics` — the JSON registry document by default, or
/// `{"wire": "<hex>"}` of the registry's full-fidelity
/// [`Registry::save_state`] bytes with `?format=wire`. The wire form is
/// what fleet coordinators absorb: unlike the JSON summaries (five fixed
/// percentile fields), the wire bytes reconstruct the registry exactly, so
/// merged fleet histograms stay faithful.
fn metrics_response(shared: &Shared, query: &str) -> Response {
    let reg = shared
        .core()
        .registry(shared.workers, shared.policy_generation());
    if query.split('&').any(|pair| pair == "format=wire") {
        let mut w = wire::Writer::new();
        reg.save_state(&mut w);
        let hex = wire::to_hex(&w.into_bytes());
        return Response::json(200, &Json::obj([("wire", Json::from(hex.as_str()))]));
    }
    Response::json(200, &reg.to_json())
}

fn shutdown(shared: &Shared) -> Response {
    let draining = shared.update(ServeCore::close);
    // Unblock the accept loop so `run` can notice the flag and join the
    // workers. The dummy connection closes immediately (clean EOF).
    let _ = TcpStream::connect(shared.addr);
    Response::json(
        200,
        &Json::obj([("ok", Json::Bool(true)), ("draining", Json::from(draining))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_core::Metrics;

    #[test]
    fn metrics_export_through_telemetry_registry() {
        let mut m = Metrics {
            submitted: 5,
            done: 3,
            timed_out: 2,
            panicked: 1,
            busy: 1,
            recovered: 4,
            ..Metrics::default()
        };
        m.record_latency(1000);
        m.record_latency(2000);
        let reg = m.to_registry(4, 2, 7, 3);
        assert_eq!(reg.counter("serve.jobs.submitted"), 5);
        assert_eq!(reg.counter("serve.policy.generation"), 3);
        assert_eq!(reg.counter("serve.jobs.done"), 3);
        assert_eq!(reg.counter("serve.jobs.evicted"), 7);
        assert_eq!(reg.counter("serve.jobs.recovered"), 4);
        assert_eq!(reg.counter("serve.jobs.timed_out"), 2);
        assert_eq!(reg.counter("serve.jobs.panicked"), 1);
        assert_eq!(reg.counter("serve.queue.depth"), 4);
        assert_eq!(reg.counter("serve.workers.total"), 2);
        assert_eq!(reg.counter("serve.workers.busy"), 1);
        assert_eq!(reg.counter("serve.job_latency.count"), 2);
        assert!(reg.counter("serve.job_latency.p50_us") >= 512);
        assert!((reg.gauge("serve.workers.utilization") - 0.5).abs() < 1e-12);
        assert!(reg.gauge("serve.job_latency.mean_us") > 0.0);
        let summary = reg.summary("serve.job_latency_us").expect("summary");
        assert_eq!(summary.count(), 2);
    }

    #[test]
    fn metrics_schema_is_golden() {
        // The /v1/metrics document is the registry's JSON: exactly these
        // names, under exactly these sections. Extending the schema is
        // fine — update the lists here — but renaming or dropping a metric
        // breaks scrapers and must be deliberate.
        let mut m = Metrics::default();
        m.record_latency(1000);
        let reg = m.to_registry(4, 2, 0, 0);
        let counters: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(
            counters,
            [
                "serve.ckpt.quarantined",
                "serve.http.requests",
                "serve.job_latency.count",
                "serve.job_latency.p50_us",
                "serve.job_latency.p95_us",
                "serve.jobs.cancelled",
                "serve.jobs.done",
                "serve.jobs.evicted",
                "serve.jobs.failed",
                "serve.jobs.panicked",
                "serve.jobs.recovered",
                "serve.jobs.rejected",
                "serve.jobs.submitted",
                "serve.jobs.timed_out",
                "serve.policy.generation",
                "serve.queue.depth",
                "serve.runs.executed",
                "serve.workers.busy",
                "serve.workers.total",
            ]
        );
        let gauges: Vec<&str> = reg.gauges().map(|(k, _)| k).collect();
        assert_eq!(
            gauges,
            ["serve.job_latency.mean_us", "serve.workers.utilization"]
        );
        let summaries: Vec<&str> = reg.summaries().map(|(k, _)| k).collect();
        assert_eq!(summaries, ["serve.job_latency_us"]);
        // The rendered document has the three top-level sections in this
        // order, and every summary carries the five fixed fields.
        let text = reg.to_json().render();
        assert!(text.starts_with("{\"counters\":{"));
        assert!(text.contains("\"gauges\":{"));
        assert!(text.contains("\"summaries\":{"));
        for field in [
            "\"count\":",
            "\"mean\":",
            "\"p50\":",
            "\"p90\":",
            "\"p99\":",
        ] {
            assert!(text.contains(field), "missing {field} in:\n{text}");
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers > 0);
        assert!(cfg.queue_depth > 0);
        assert!(cfg.job_deadline.is_none(), "jobs run unbounded by default");
        assert!(cfg.journal_dir.is_none(), "in-memory by default");
        assert!(cfg.finished_cap > 0, "retention cap must admit jobs");
        assert!(cfg.policy.is_none(), "baseline policy by default");
    }

    /// Server state with one running job and no workers.
    fn running_job() -> (Arc<Shared>, u64) {
        let cfg = ServeConfig::default();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let shared = Arc::new(Shared::new(&cfg, addr).expect("in-memory state"));
        let mut core = shared.core();
        let id = core.reserve().expect("room");
        core.admit(id, JobSpec::Run(RunSpec::default()));
        assert_eq!(core.next_job().map(|(id, _)| id), Some(id));
        drop(core);
        (shared, id)
    }

    #[test]
    fn wait_past_times_out_without_updates() {
        let (shared, id) = running_job();
        shared.update(|core| core.publish(id, |p| p.ops = 1));
        assert!(!shared.wait_past(id, 1, Duration::from_millis(10)));
        // seq 1 already satisfies `seq = 0` — returns immediately.
        assert!(shared.wait_past(id, 0, Duration::from_millis(10)));
    }

    #[test]
    fn wait_past_wakes_on_publish() {
        let (shared, id) = running_job();
        let waiter = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let moved = waiter.wait_past(id, 0, Duration::from_secs(5));
            (
                moved,
                waiter.core().job(id).and_then(|job| job.progress.clone()),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        shared.update(|core| core.publish(id, |p| p.ops = 42));
        let (moved, progress) = handle.join().expect("no panic");
        assert!(moved, "woken");
        assert_eq!(progress.map(|p| p.ops), Some(42));
    }

    #[test]
    fn wait_past_ends_with_the_job_even_if_it_never_published() {
        let (shared, id) = running_job();
        let waiter = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let moved = waiter.wait_past(id, 0, Duration::from_secs(5));
            (moved, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        shared.settle(|core| core.finish(id, Outcome::Failed("x".into()), 1));
        let (moved, waited) = handle.join().expect("no panic");
        assert!(moved);
        assert!(waited < Duration::from_secs(1), "woke late: {waited:?}");
        // An end that landed before the wait began returns at once, and
        // so does a job the core no longer holds.
        let started = Instant::now();
        assert!(shared.wait_past(id, 0, Duration::from_secs(5)));
        assert!(shared.wait_past(999, 0, Duration::from_secs(5)));
        assert!(started.elapsed() < Duration::from_secs(1));
        // A job that has not ended keeps its waiter parked until timeout.
        let (shared, id) = running_job();
        assert!(!shared.wait_past(id, 0, Duration::from_millis(10)));
    }

    /// Workers parked on an empty core all wake at close, take the jobs
    /// admitted just before it, and exit once the queue is drained — a
    /// close never strands an accepted job or a waiting worker.
    #[test]
    fn close_drains_admitted_jobs_then_releases_every_waiting_worker() {
        let (shared, _) = running_job();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut took = Vec::new();
                    while let Some((id, _)) = shared.next_job() {
                        took.push(id);
                    }
                    took
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let ids = shared.update(|core| {
            let ids = [core.reserve(), core.reserve()].map(|id| id.expect("room"));
            for id in ids {
                core.admit(id, JobSpec::Run(RunSpec::default()));
            }
            core.close();
            ids
        });
        let mut took: Vec<u64> = workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("worker exits"))
            .collect();
        took.sort_unstable();
        assert_eq!(took, ids, "jobs admitted just before the close drain");
    }
}
