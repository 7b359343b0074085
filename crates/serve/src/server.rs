//! The job server: accept loop, router, worker pool, metrics, shutdown.
//!
//! One thread accepts connections and hands each to a short-lived handler
//! thread; handlers parse requests and either answer immediately (status,
//! metrics) or enqueue work. A fixed pool of worker threads drains the
//! bounded queue and runs simulations via [`baryon_bench::spec::JobSpec`].
//! Backpressure is explicit: a full queue answers `503` with
//! `Retry-After`, never blocking the accept path.

use crate::error::ErrorCode;
use crate::http::{read_request, ChunkedWriter, Request, Response};
use crate::job::{CancelOutcome, JobRecord, JobState, JobTable};
use crate::journal::{recover, Journal, JournalEvent, RecoveredState};
use crate::progress::{end_stream, events_target, EventCursor, ProgressBoard};
use crate::queue::{BoundedQueue, PushError};
use baryon_bench::spec::{resume_from_with, JobSpec, RunSpec, CHECKPOINT_PREFIX};
use baryon_core::checkpoint::Checkpoint;
use baryon_core::policy::FleetPolicy;
use baryon_sim::histogram::Histogram;
use baryon_sim::json::{self, Json};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

/// Serve-layer counters, exported uniformly through the unified
/// [`baryon_sim::telemetry::Registry`] so grid/report tooling can consume
/// them like any simulator component's counters.
#[derive(Default)]
pub struct Metrics {
    requests: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    cancelled: AtomicU64,
    recovered: AtomicU64,
    runs_executed: AtomicU64,
    ckpt_quarantined: AtomicU64,
    busy: AtomicUsize,
    latency_us: Mutex<Histogram>,
}

impl Metrics {
    fn record_latency(&self, us: u64) {
        self.latency_us
            .lock()
            .expect("latency lock poisoned")
            .record(us);
    }

    /// Snapshots every counter and gauge into a telemetry [`Registry`]
    /// under the `serve.` namespace. Job latency is published both as a
    /// summary (`serve.job_latency_us`) and as the legacy flat counters
    /// (`serve.job_latency.count` / `.p50_us` / `.p95_us`). `evicted` is
    /// the job table's retention-eviction count (the table owns it, the
    /// metrics document reports it).
    pub fn to_registry(
        &self,
        queue_depth: usize,
        workers: usize,
        evicted: u64,
        generation: u64,
    ) -> Registry {
        let mut reg = Registry::new();
        reg.set_counter("serve.http.requests", self.requests.load(Ordering::Relaxed));
        reg.set_counter("serve.policy.generation", generation);
        reg.set_counter(
            "serve.jobs.submitted",
            self.submitted.load(Ordering::Relaxed),
        );
        reg.set_counter("serve.jobs.rejected", self.rejected.load(Ordering::Relaxed));
        reg.set_counter("serve.jobs.evicted", evicted);
        reg.set_counter(
            "serve.jobs.recovered",
            self.recovered.load(Ordering::Relaxed),
        );
        reg.set_counter("serve.jobs.done", self.done.load(Ordering::Relaxed));
        reg.set_counter("serve.jobs.failed", self.failed.load(Ordering::Relaxed));
        reg.set_counter(
            "serve.jobs.timed_out",
            self.timed_out.load(Ordering::Relaxed),
        );
        reg.set_counter("serve.jobs.panicked", self.panicked.load(Ordering::Relaxed));
        reg.set_counter(
            "serve.jobs.cancelled",
            self.cancelled.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "serve.runs.executed",
            self.runs_executed.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "serve.ckpt.quarantined",
            self.ckpt_quarantined.load(Ordering::Relaxed),
        );
        reg.set_counter("serve.queue.depth", queue_depth as u64);
        let busy = self.busy.load(Ordering::Relaxed);
        reg.set_counter("serve.workers.total", workers as u64);
        reg.set_counter("serve.workers.busy", busy as u64);
        reg.set_gauge(
            "serve.workers.utilization",
            busy as f64 / workers.max(1) as f64,
        );
        let latency = self.latency_us.lock().expect("latency lock poisoned");
        reg.set_counter("serve.job_latency.count", latency.count());
        reg.set_counter("serve.job_latency.p50_us", latency.percentile(50.0));
        reg.set_counter("serve.job_latency.p95_us", latency.percentile(95.0));
        reg.set_gauge("serve.job_latency.mean_us", latency.mean());
        reg.observe_histogram("serve.job_latency_us", &latency);
        reg
    }
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    jobs: JobTable,
    queue: BoundedQueue<u64>,
    metrics: Metrics,
    progress: ProgressBoard,
    shutdown: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    job_deadline: Option<Duration>,
    journal: Option<Journal>,
    journal_dir: Option<PathBuf>,
    checkpoint_every: u64,
    policy: Option<FleetPolicy>,
}

impl Shared {
    /// The fleet config generation this incarnation executes under.
    fn policy_generation(&self) -> u64 {
        self.policy.as_ref().map_or(0, |p| p.generation)
    }
}

/// Appends to the journal if one is configured. Append failures are
/// reported but do not fail the request — the in-memory state is still
/// correct for this incarnation; only crash durability degrades.
fn journal_append(shared: &Shared, event: &JournalEvent) {
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.append(event) {
            eprintln!("baryon-serve: journal append failed: {e}");
        }
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
        let shared = Arc::new(Shared {
            jobs: JobTable::with_finished_cap(cfg.finished_cap),
            queue: BoundedQueue::new(cfg.queue_depth),
            metrics: Metrics::default(),
            progress: ProgressBoard::new(),
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            workers: cfg.workers,
            job_deadline,
            journal,
            journal_dir: cfg.journal_dir.clone(),
            checkpoint_every,
            policy: cfg.policy.clone(),
        });
        if let Some(dir) = &cfg.journal_dir {
            recover_from_journal(&shared, dir)?;
        }
        // Mark which generation this incarnation journals under, so the
        // journal distinguishes results across rollouts. Generation 0 is
        // the baseline and stays unmarked (byte-identical journals).
        if shared.policy_generation() > 0 {
            journal_append(
                &shared,
                &JournalEvent::PolicyGeneration {
                    generation: shared.policy_generation(),
                },
            );
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
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                continue; // transient accept error
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        // Drain: workers exit once the (closed) queue is empty.
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Boot-time recovery: replays the write-ahead journal and reconstructs
/// the job table. Settled jobs come back with their journaled outcomes;
/// never-started and interrupted jobs are re-enqueued (interrupted single
/// runs will resume from their newest checkpoint when a worker picks them
/// up). Runs before the worker pool spawns, so recovered work is queued
/// ahead of anything newly submitted.
fn recover_from_journal(shared: &Shared, dir: &std::path::Path) -> io::Result<()> {
    let events = Journal::replay(dir)?;
    let (jobs, max_id) = recover(&events);
    shared.jobs.floor_next_id(max_id);
    for job in jobs {
        let spec = json::parse(&job.spec_json)
            .map_err(|e| e.to_string())
            .and_then(|doc| JobSpec::from_json(&doc));
        let spec = match spec {
            Ok(spec) => spec,
            Err(e) => {
                // A journaled spec that no longer parses (e.g. the
                // workload registry changed under it) surfaces as a
                // failed job instead of being dropped silently.
                shared.jobs.install(JobRecord {
                    id: job.id,
                    state: JobState::Failed,
                    spec: JobSpec::Run(baryon_bench::spec::RunSpec::default()),
                    result: None,
                    error: Some(format!("unrecoverable journaled spec: {e}")),
                    wall_us: None,
                });
                continue;
            }
        };
        match job.state {
            RecoveredState::Queued | RecoveredState::Interrupted => {
                shared.jobs.install(JobRecord {
                    id: job.id,
                    state: JobState::Queued,
                    spec,
                    result: None,
                    error: None,
                    wall_us: None,
                });
                if shared.queue.try_push(job.id).is_ok() {
                    shared.metrics.recovered.fetch_add(1, Ordering::Relaxed);
                } else {
                    // The queue is smaller than the recovered backlog;
                    // failing loudly beats stranding the job as `queued`
                    // forever.
                    let reason = "recovery: queue full, job not re-enqueued".to_owned();
                    shared.jobs.start(job.id);
                    shared.jobs.finish(job.id, Err(reason.clone()), 0);
                    shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    journal_append(
                        shared,
                        &JournalEvent::Finish {
                            id: job.id,
                            ok: false,
                            body: reason,
                        },
                    );
                }
            }
            RecoveredState::Finished { ok, body } => {
                let (state, result, error) = if ok {
                    match json::parse(&body) {
                        Ok(_) => (JobState::Done, Some(body), None),
                        Err(e) => (
                            JobState::Failed,
                            None,
                            Some(format!("unrecoverable journaled result: {e}")),
                        ),
                    }
                } else {
                    (JobState::Failed, None, Some(body))
                };
                shared.jobs.install(JobRecord {
                    id: job.id,
                    state,
                    spec,
                    result,
                    error,
                    wall_us: None,
                });
            }
            RecoveredState::Cancelled => {
                shared.jobs.install(JobRecord {
                    id: job.id,
                    state: JobState::Cancelled,
                    spec,
                    result: None,
                    error: None,
                    wall_us: None,
                });
            }
        }
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        // `start` refuses jobs cancelled while queued.
        let Some(spec) = shared.jobs.start(id) else {
            continue;
        };
        journal_append(shared, &JournalEvent::Start { id });
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        match shared.job_deadline {
            None => run_job(shared, id, spec),
            Some(deadline) => run_job_with_deadline(shared, id, spec, deadline),
        }
        shared.metrics.busy.fetch_sub(1, Ordering::Relaxed);
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
                shared
                    .metrics
                    .ckpt_quarantined
                    .fetch_add(scan.quarantined, Ordering::Relaxed);
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
                    shared
                        .metrics
                        .ckpt_quarantined
                        .fetch_add(1, Ordering::Relaxed);
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
            shared.progress.publish(id, |jp| {
                jp.phase = p.phase.as_str();
                jp.ops = p.ops;
                jp.insts_done = p.insts_done;
                jp.insts_target = p.insts_target;
                jp.cycles = p.cycles;
                jp.cells_total = 1;
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
    shared.progress.publish(id, |jp| {
        jp.phase = "measure";
        jp.cells_total = total;
    });
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        results.push(Some(cell.execute_with(shared.policy.as_ref())?.to_json()));
        shared.progress.publish(id, |jp| {
            jp.cells_done = i as u64 + 1;
            jp.ops = i as u64 + 1;
        });
    }
    spec.gather(results)
}

/// Executes `spec` and records the outcome. The guarded
/// [`JobTable::finish`] decides whether this result lands — if a watchdog
/// already failed the job, the late result is discarded and no completion
/// metrics move (a job resolves exactly once).
fn run_job(shared: &Shared, id: u64, spec: JobSpec) {
    let t0 = Instant::now();
    let (outcome, panicked) =
        match panic::catch_unwind(AssertUnwindSafe(|| execute_spec(shared, id, &spec))) {
            Ok(outcome) => (outcome, false),
            Err(payload) => (Err(panic_message(payload.as_ref())), true),
        };
    let wall_us = t0.elapsed().as_micros() as u64;
    if panicked {
        shared.metrics.panicked.fetch_add(1, Ordering::Relaxed);
    }
    let succeeded = outcome.is_ok();
    let body = match &outcome {
        Ok(doc) => doc.render(),
        Err(message) => message.clone(),
    };
    if shared.jobs.finish(id, outcome, wall_us) {
        journal_append(
            shared,
            &JournalEvent::Finish {
                id,
                ok: succeeded,
                body,
            },
        );
        shared.metrics.record_latency(wall_us);
        if succeeded {
            shared.metrics.done.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .runs_executed
                .fetch_add(spec.runs() as u64, Ordering::Relaxed);
        } else {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    // The final state now lives in the job table; event streams emit
    // their end record from there.
    shared.progress.remove(id);
}

/// Runs `spec` on a watchdog-supervised runner thread. If the runner does
/// not report back within `deadline`, the job is failed with a timeout
/// reason and the worker returns to take the next queued job; the stuck
/// runner is abandoned (it cannot be killed, but its eventual result is
/// ignored by the guarded `finish` and the thread dies with the process).
fn run_job_with_deadline(shared: &Arc<Shared>, id: u64, spec: JobSpec, deadline: Duration) {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let runner_shared = Arc::clone(shared);
    let runner = match std::thread::Builder::new()
        .name(format!("baryon-serve-job-{id}"))
        .spawn(move || {
            run_job(&runner_shared, id, spec);
            let _ = done_tx.send(());
        }) {
        Ok(runner) => runner,
        Err(e) => {
            // Thread exhaustion must fail this job, not the whole worker.
            if shared
                .jobs
                .finish(id, Err(format!("cannot spawn job runner thread: {e}")), 0)
            {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
    };
    match done_rx.recv_timeout(deadline) {
        Ok(()) => {
            let _ = runner.join();
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            let wall_us = deadline.as_micros() as u64;
            let reason = format!("deadline exceeded: still running after {deadline:?}");
            if shared.jobs.finish(id, Err(reason), wall_us) {
                shared.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.record_latency(wall_us);
            } else {
                // The runner slipped in right at the deadline; its result
                // already landed, so this is not a timeout after all.
                let _ = runner.join();
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The runner died without reporting (e.g. a poisoned lock
            // aborted it past the catch_unwind); surface that as a failure
            // if nothing landed.
            let _ = runner.join();
            if shared
                .jobs
                .finish(id, Err("job runner died without a result".to_owned()), 0)
            {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned());
    format!("worker panicked: {detail}")
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A parked keep-alive peer must not pin this thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // peer closed between requests
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = Response::error(400, ErrorCode::BadRequest, &e.to_string())
                    .write_to(&mut writer, true);
                return;
            }
            Err(_) => return, // timeout or reset
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // Event streams take over the connection: chunked transfer until
        // the job settles, then close.
        if let Some(id) = events_target(&request) {
            if shared.jobs.get(id).is_some() {
                let _ = stream_events(shared, id, &mut writer);
            } else {
                let _ = Response::error(404, ErrorCode::NotFound, "no such job")
                    .write_to(&mut writer, true);
            }
            return;
        }
        let response = route(shared, &request);
        let close = !request.keep_alive() || shared.shutdown.load(Ordering::SeqCst);
        if response.write_to(&mut writer, close).is_err() || close {
            return;
        }
    }
}

/// Streams one JSON event object per line over chunked transfer encoding
/// until the job settles: `progress` events whenever the job's
/// [`crate::progress::JobProgress`] sequence moves (strictly monotonic
/// `seq`/`ops` within a run), `alive` heartbeats across long gaps, and a
/// final `end` event carrying the settled state.
fn stream_events(shared: &Shared, id: u64, writer: &mut TcpStream) -> io::Result<()> {
    let mut stream = ChunkedWriter::begin(&mut *writer, 200, &[])?;
    let mut cursor = EventCursor::new(id);
    loop {
        cursor.send_progress(&shared.progress, &mut stream)?;
        match shared.jobs.state(id) {
            // Evicted mid-stream (retention cap) — close the stream with
            // what we know.
            None => return end_stream(stream, id, "evicted"),
            Some(state) if state.is_settled() => return end_stream(stream, id, state.as_str()),
            // `run_job` settles a job before it removes its snapshot, so
            // a settle between the check above and this wait wakes it.
            Some(_) => cursor.wait(&shared.progress, &mut stream, || {
                shared.jobs.state(id).is_none_or(JobState::is_settled)
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
        ("GET", None) => match shared.jobs.get(id) {
            Some(record) => Response::json(200, &record.to_json()),
            None => Response::error(404, ErrorCode::NotFound, "no such job"),
        },
        ("POST", Some("cancel")) => match shared.jobs.cancel(id) {
            CancelOutcome::Cancelled => {
                journal_append(shared, &JournalEvent::Cancel { id });
                shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                Response::json(
                    200,
                    &Json::obj([("id", Json::from(id)), ("state", Json::from("cancelled"))]),
                )
            }
            CancelOutcome::TooLate(state) => Response::error(
                409,
                ErrorCode::Conflict,
                &format!(
                    "job is {}, only queued jobs can be cancelled",
                    state.as_str()
                ),
            ),
            CancelOutcome::NotFound => Response::error(404, ErrorCode::NotFound, "no such job"),
        },
        (_, None) => Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed"),
        _ => Response::error(404, ErrorCode::NotFound, "no such endpoint"),
    }
}

fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
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
    let spec_json = spec.to_json().render();
    let id = shared.jobs.submit(spec);
    // Write-ahead: the submit record must be durable before the client
    // sees 202. If it cannot be journaled, the submission is refused —
    // an acknowledged job that would vanish in a crash is worse than a
    // retry.
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.append(&JournalEvent::Submit { id, spec_json }) {
            shared.jobs.forget(id);
            return Response::error(
                500,
                ErrorCode::Internal,
                &format!("cannot journal submission: {e}"),
            );
        }
    }
    match shared.queue.try_push(id) {
        Ok(()) => {
            shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            Response::json(
                202,
                &Json::obj([("id", Json::from(id)), ("state", Json::from("queued"))]),
            )
        }
        Err(PushError::Full) => {
            shared.jobs.forget(id);
            // The submit record is already durable; compensate so a
            // replay never resurrects a job the client saw refused.
            journal_append(shared, &JournalEvent::Cancel { id });
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            Response::error(503, ErrorCode::QueueFull, "queue full, retry later")
                .header("Retry-After", "1")
        }
        Err(PushError::Closed) => {
            shared.jobs.forget(id);
            journal_append(shared, &JournalEvent::Cancel { id });
            Response::error(503, ErrorCode::ShuttingDown, "server is shutting down")
        }
    }
}

/// `GET /v1/metrics` — the JSON registry document by default, or
/// `{"wire": "<hex>"}` of the registry's full-fidelity
/// [`Registry::save_state`] bytes with `?format=wire`. The wire form is
/// what fleet coordinators absorb: unlike the JSON summaries (five fixed
/// percentile fields), the wire bytes reconstruct the registry exactly, so
/// merged fleet histograms stay faithful.
fn metrics_response(shared: &Shared, query: &str) -> Response {
    let reg = shared.metrics.to_registry(
        shared.queue.len(),
        shared.workers,
        shared.jobs.evictions(),
        shared.policy_generation(),
    );
    if query.split('&').any(|pair| pair == "format=wire") {
        let mut w = wire::Writer::new();
        reg.save_state(&mut w);
        let hex = wire::to_hex(&w.into_bytes());
        return Response::json(200, &Json::obj([("wire", Json::from(hex.as_str()))]));
    }
    Response::json(200, &reg.to_json())
}

fn shutdown(shared: &Shared) -> Response {
    let draining = shared.queue.len();
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
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

    #[test]
    fn metrics_export_through_telemetry_registry() {
        let m = Metrics::default();
        m.submitted.store(5, Ordering::Relaxed);
        m.done.store(3, Ordering::Relaxed);
        m.timed_out.store(2, Ordering::Relaxed);
        m.panicked.store(1, Ordering::Relaxed);
        m.busy.store(1, Ordering::Relaxed);
        m.recovered.store(4, Ordering::Relaxed);
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
        let m = Metrics::default();
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
}
