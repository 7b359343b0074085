//! The fleet coordinator: one front-door HTTP server over N shards.
//!
//! The coordinator owns no simulation code. It admits jobs (per-client
//! quotas, two-level QoS queue), hash-routes single runs onto shards,
//! scatters grid sweeps cell-by-cell across every shard, polls shard-local
//! jobs to completion, gathers batch results deterministically, proxies
//! event streams, and merges every shard's full-fidelity wire metrics into
//! one fleet-wide registry under `shard<i>.` namespaces.
//!
//! Supervision is the shard set's ([`crate::shard::ShardSet`]): a killed
//! or wedged shard is restarted on its own journal directory, replays its
//! write-ahead journal, and resumes interrupted runs from checkpoints —
//! the coordinator's pollers just keep polling the same shard-local job
//! IDs at the new address, so a mid-sweep `SIGKILL` costs latency, never
//! results.

use crate::config::{CommitError, RollbackError, Slot, SlotMachine, StageError};
use crate::quota::{Class, ClientQuotas, QosQueue, QueueError};
use crate::router::{CellState, FleetJob, FleetJobKind, JobBoard};
use crate::shard::{ShardLauncher, ShardSet};
use baryon_bench::batch::BatchPlan;
use baryon_bench::spec::JobSpec;
use baryon_compress::crc::crc32;
use baryon_core::checkpoint::atomic_write;
use baryon_core::policy::FleetPolicy;
use baryon_serve::client::{Client, ClientError, ClientResponse};
use baryon_serve::error::ErrorCode;
use baryon_serve::http::{read_request, ChunkedWriter, Request, Response, CRC_HEADER};
use baryon_serve::job::{CancelOutcome, JobState};
use baryon_serve::progress::ProgressBoard;
use baryon_sim::json::{self, Json};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator construction knobs (the CLI's `fleet` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// TCP port on 127.0.0.1; `0` asks for an ephemeral port.
    pub port: u16,
    /// Number of worker shards to spawn and supervise.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Bounded queue depth per shard.
    pub shard_queue_depth: usize,
    /// Coordinator dispatch-queue capacity *per class* — a full batch
    /// backlog cannot reject interactive work.
    pub queue_cap: usize,
    /// Per-client in-flight job cap (fleet jobs, not cells).
    pub max_in_flight_per_client: usize,
    /// Root directory for per-shard journals (`<root>/shard<i>/`).
    pub journal_root: PathBuf,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            port: 8678,
            shards: 3,
            workers_per_shard: 2,
            shard_queue_depth: 64,
            queue_cap: 256,
            max_in_flight_per_client: 8,
            journal_root: PathBuf::from("fleet-journal"),
        }
    }
}

/// Fleet-level counters, merged into the `/v1/metrics` registry under
/// `fleet.*` alongside each shard's absorbed `shard<i>.serve.*` metrics.
#[derive(Default)]
struct FleetMetrics {
    submitted: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_queue: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    redispatched: AtomicU64,
    /// Cells re-dispatched off a shard that exhausted its crash-loop
    /// budget and was quarantined.
    failover: AtomicU64,
    /// Shard replies that flunked their CRC frame (a lying shard) and
    /// were discarded instead of trusted.
    reply_errors: AtomicU64,
    /// Results computed under a config generation whose roll failed —
    /// withheld from gathers and re-dispatched under the restored config.
    quarantined_results: AtomicU64,
}

/// A shard reply the coordinator refused to act on.
#[derive(Debug)]
pub enum ShardError {
    /// The reply body does not hash to its `x-baryon-crc` frame — a
    /// lying shard (or a corrupting path between us and it).
    Corrupt {
        /// The CRC the shard stamped on the reply.
        claimed: String,
        /// The CRC of the body that actually arrived.
        actual: u32,
    },
    /// Transport-level failure reaching the shard.
    Transport(ClientError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Corrupt { claimed, actual } => write!(
                f,
                "shard reply failed its CRC check (claimed {claimed}, body is {actual:08x})"
            ),
            ShardError::Transport(e) => write!(f, "shard unreachable: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One unit of dispatch: a whole single run (`cell == None`) or one batch
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkItem {
    fleet_id: u64,
    cell: Option<usize>,
}

/// State shared by the accept loop, handlers, dispatchers, the poller,
/// and the supervisor.
struct FleetShared {
    board: JobBoard,
    queue: QosQueue<(Class, WorkItem)>,
    quotas: ClientQuotas,
    shards: ShardSet,
    progress: ProgressBoard,
    metrics: FleetMetrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// The A/B config slot machine (persisted under `config_dir`).
    config: Mutex<SlotMachine>,
    /// Where slot policies and the machine state live
    /// (`<journal_root>/config/`).
    config_dir: PathBuf,
    /// Serializes rollouts: commit/rollback hold this for the whole
    /// rolling restart so at most one engine runs.
    rollout: Mutex<()>,
    /// The config generation a commit is currently rolling toward (0 =
    /// no roll in flight). While nonzero, the poller stages finished
    /// results instead of settling them — a gather must never mix cells
    /// computed under a generation that may yet be rolled back.
    rolling_to: AtomicU64,
}

impl FleetShared {
    /// Applies a board update; when it settles the job, releases the
    /// client's quota slot, bumps completion counters, and nudges event
    /// streams via the progress board.
    fn apply_update(&self, id: u64, apply: impl FnOnce(&mut FleetJob)) {
        let Some((client, _class)) = self.board.update(id, apply) else {
            return;
        };
        self.settle_bookkeeping(id, &client);
    }

    /// The post-settle tail shared by [`FleetShared::apply_update`] and
    /// staged-result resolution: release the quota slot, bump the
    /// completion counter, and wake event streams.
    fn settle_bookkeeping(&self, id: u64, client: &str) {
        self.quotas.release(client);
        match self.board.state(id) {
            Some(JobState::Done) => {
                self.metrics.done.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Wake any stream parked on wait_past so it notices the settle
        // promptly.
        if let Some(job) = self.board.get(id) {
            let (done, total) = (job.cells_done(), job.cells_total());
            self.progress.publish(id, |jp| {
                jp.phase = "done";
                jp.cells_done = done;
                jp.cells_total = total;
                jp.ops = done.max(jp.ops);
            });
        }
    }

    /// Validates the CRC frame every shard stamps on its replies
    /// ([`CRC_HEADER`]). A mismatch means the body was corrupted after
    /// the shard computed it — the reply is discarded (typed
    /// [`ShardError::Corrupt`], counted in `fleet.shard.reply_errors`)
    /// rather than trusted, and callers treat it like any transient
    /// shard failure: retry, requeue, or poll again next tick.
    fn verify_reply(&self, response: ClientResponse) -> Result<ClientResponse, ShardError> {
        let Some(claimed) = response.header(CRC_HEADER).map(str::to_owned) else {
            return Ok(response); // no frame (e.g. a pre-CRC shard) — accept
        };
        let actual = crc32(response.body.as_bytes());
        if claimed == format!("{actual:08x}") {
            return Ok(response);
        }
        self.metrics.reply_errors.fetch_add(1, Ordering::Relaxed);
        Err(ShardError::Corrupt { claimed, actual })
    }
}

/// A handle for chaos testing and introspection, detached from the
/// coordinator's serving loop.
#[derive(Clone)]
pub struct FleetController {
    shared: Arc<FleetShared>,
}

impl FleetController {
    /// SIGKILLs shard `index`'s current process; the supervisor restarts
    /// it on the next tick.
    ///
    /// # Errors
    ///
    /// Propagates the kill failure.
    pub fn kill_shard(&self, index: usize) -> io::Result<()> {
        self.shared.shards.kill(index)
    }

    /// Total shard restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.shared.shards.restarts()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// The coordinator's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Pauses dispatch and supervision for a shard (test hook — the
    /// rollout engine pauses shards itself during commit/rollback).
    pub fn pause_shard(&self, index: usize) {
        self.shared.shards.pause(index);
    }

    /// Resumes a paused shard.
    pub fn unpause_shard(&self, index: usize) {
        self.shared.shards.unpause(index);
    }

    /// The active config generation (0 = built-in baseline).
    pub fn config_generation(&self) -> u64 {
        self.shared
            .config
            .lock()
            .expect("config lock poisoned")
            .active()
            .1
            .generation
    }

    /// How many shards are currently quarantined (crash-loop budget
    /// exhausted, out of the routing rotation).
    pub fn quarantined_shards(&self) -> u64 {
        self.shared.shards.quarantined_count()
    }

    /// Whether shard `index` is quarantined.
    pub fn shard_is_quarantined(&self, index: usize) -> bool {
        self.shared.shards.is_quarantined(index)
    }

    /// Completed rollbacks (manual and automatic).
    pub fn config_rollbacks(&self) -> u64 {
        self.shared
            .config
            .lock()
            .expect("config lock poisoned")
            .rollbacks()
    }
}

/// A bound, running fleet (shards spawned, dispatchers/poller/supervisor
/// threads live; call [`Fleet::run`] to serve connections).
pub struct Fleet {
    listener: TcpListener,
    shared: Arc<FleetShared>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    background: Vec<std::thread::JoinHandle<()>>,
}

/// Supervisor cadence: how often shards are probed and the dead restarted.
const SUPERVISE_EVERY: Duration = Duration::from_millis(500);
/// Poller cadence: how often dispatched shard-local jobs are polled.
const POLL_EVERY: Duration = Duration::from_millis(100);

impl Fleet {
    /// Spawns the shard processes, binds `127.0.0.1:<port>`, and starts
    /// the dispatcher, poller, and supervisor threads.
    ///
    /// # Errors
    ///
    /// Shard spawn failures (the launcher's program missing, a shard
    /// exiting before announcing its address) and the bind failure; any
    /// already-spawned shards are killed before returning.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards`, `cfg.queue_cap`, or
    /// `cfg.max_in_flight_per_client` is zero.
    pub fn bind(cfg: FleetConfig, mut launcher: ShardLauncher) -> io::Result<Fleet> {
        // Bind before spawning: a taken port fails fast (with its
        // distinctive `AddrInUse`) instead of after N process launches.
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.port))?;
        // Recover the config slots before spawning so restarted fleets
        // come back up on the generation they last committed.
        let config_dir = cfg.journal_root.join("config");
        std::fs::create_dir_all(&config_dir)?;
        let machine = load_slot_machine(&config_dir);
        let (active, info) = machine.active();
        if info.generation > 0 {
            launcher.policy_path = Some(slot_policy_path(&config_dir, active));
        }
        let shards = ShardSet::spawn(launcher, &cfg.journal_root, cfg.shards)?;
        let shared = Arc::new(FleetShared {
            board: JobBoard::new(),
            queue: QosQueue::new(cfg.queue_cap),
            quotas: ClientQuotas::new(cfg.max_in_flight_per_client),
            shards,
            progress: ProgressBoard::new(),
            metrics: FleetMetrics::default(),
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            config: Mutex::new(machine),
            config_dir,
            rollout: Mutex::new(()),
            rolling_to: AtomicU64::new(0),
        });
        let dispatchers = (0..cfg.shards.max(2))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("baryon-fleet-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut background = Vec::new();
        {
            let shared = Arc::clone(&shared);
            background.push(
                std::thread::Builder::new()
                    .name("baryon-fleet-poller".to_owned())
                    .spawn(move || poller_loop(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            background.push(
                std::thread::Builder::new()
                    .name("baryon-fleet-supervisor".to_owned())
                    .spawn(move || supervisor_loop(&shared))?,
            );
        }
        Ok(Fleet {
            listener,
            shared,
            dispatchers,
            background,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A detached handle for chaos testing, usable while [`Fleet::run`]
    /// serves on another thread.
    pub fn controller(&self) -> FleetController {
        FleetController {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until `POST /v1/shutdown`, then drains dispatchers, stops
    /// the background threads, and shuts the shards down.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                continue;
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        for dispatcher in self.dispatchers {
            let _ = dispatcher.join();
        }
        for thread in self.background {
            let _ = thread.join();
        }
        self.shared.shards.shutdown();
        Ok(())
    }
}

fn dispatcher_loop(shared: &Arc<FleetShared>) {
    while let Some((class, item)) = shared.queue.pop() {
        if shared.shutdown.load(Ordering::SeqCst) {
            continue; // drain without dispatching
        }
        dispatch(shared, class, item);
    }
}

/// Dispatches one work item: POSTs the cell's spec to its shard and
/// records the shard-local job ID. A refused or unreachable shard puts the
/// item back on the queue (the supervisor is restarting the shard
/// meanwhile); an item that cannot be requeued fails its cell.
fn dispatch(shared: &Arc<FleetShared>, class: Class, item: WorkItem) {
    let Some(job) = shared.board.get(item.fleet_id) else {
        return; // forgotten (admission rolled back)
    };
    if job.state.is_settled() {
        return; // cancelled while queued
    }
    let (shard, spec_body) = match (&job.kind, item.cell) {
        (FleetJobKind::Single { shard, cell }, None) => {
            if !matches!(cell, CellState::Pending) {
                return; // duplicate item; already dispatched
            }
            (*shard, job.spec.to_json().render())
        }
        (FleetJobKind::Batch { plan, cells }, Some(index)) => {
            if !matches!(cells.get(index), Some(CellState::Pending)) {
                return;
            }
            let cell = &plan.cells[index];
            (
                cell.shard,
                JobSpec::Run(cell.spec.clone()).to_json().render(),
            )
        }
        _ => return, // malformed item; nothing sensible to do
    };
    // A quarantined shard never comes back on its own; deterministically
    // probe forward from the routed index for a shard still in rotation.
    let Some(shard) = first_in_rotation(shared, shard) else {
        // Every shard is quarantined; keep the item in play — an
        // operator rollout is the one path back.
        requeue(shared, class, item);
        return;
    };
    if shared.shards.is_paused(shard) {
        // The rollout engine is draining/restarting this shard; keep the
        // item in play until the shard comes back.
        requeue(shared, class, item);
        return;
    }
    let outcome =
        shared
            .shards
            .client(shard)
            .request_with_retry("POST", "/v1/jobs", Some(&spec_body));
    let remote = match outcome {
        // A 5xx survived the client's retries: 503 means queue full /
        // shutting down, 500 a transient shard-side fault (e.g. the
        // journal under a hostile disk refusing the submission). Either
        // way the shard may recover — back off and requeue, never fail
        // the cell on a server-side error.
        Ok(response) if response.status >= 500 => None,
        // A corrupt 202 is indistinguishable from garbage: the shard may
        // or may not hold the job. Requeue — the duplicate-dispatch guard
        // above drops the item if the poller lands it first.
        Ok(response) => match shared.verify_reply(response) {
            Err(_) => None,
            Ok(response) => match response.into_result() {
                Ok(accepted) => match json::parse(&accepted.body)
                    .ok()
                    .as_ref()
                    .and_then(|doc| doc.get("id").and_then(Json::as_u64))
                {
                    Some(remote) => Some(remote),
                    None => {
                        fail_cell(shared, &item, "shard sent an unreadable 202 body");
                        return;
                    }
                },
                Err(e) => {
                    // The shard understood the request and refused it for
                    // good (e.g. invalid spec surfaced late) — fail the
                    // cell; retrying cannot change a deterministic
                    // rejection.
                    fail_cell(shared, &item, &format!("shard rejected job: {e}"));
                    return;
                }
            },
        },
        Err(_) => None, // connect/timeout → shard is restarting; requeue
    };
    let Some(remote) = remote else {
        requeue(shared, class, item);
        return;
    };
    shared.apply_update(item.fleet_id, |job| match (&mut job.kind, item.cell) {
        (FleetJobKind::Single { cell, .. }, None) => {
            *cell = CellState::Dispatched { shard, remote };
        }
        (FleetJobKind::Batch { cells, .. }, Some(index)) => {
            cells[index] = CellState::Dispatched { shard, remote };
        }
        _ => {}
    });
}

/// Puts an undeliverable item back on the queue after a short pause. The
/// requeue bypasses the class cap — the item was already admitted, and a
/// momentarily full queue (e.g. a saturating burst while a shard is
/// paused for a rollout) must not cost the job — so only a closed queue
/// (shutdown) fails the cell.
fn requeue(shared: &Arc<FleetShared>, class: Class, item: WorkItem) {
    shared.metrics.redispatched.fetch_add(1, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(100));
    if shared.queue.requeue(class, (class, item)).is_err() {
        fail_cell(shared, &item, "shard unreachable and dispatch queue closed");
    }
}

/// The first non-quarantined shard at or after `preferred`, probing
/// forward deterministically (`(preferred + k) % n`) so the same cell
/// keeps landing on the same substitute while the quarantine set is
/// stable. `None` when every shard is out of rotation.
fn first_in_rotation(shared: &Arc<FleetShared>, preferred: usize) -> Option<usize> {
    let n = shared.shards.len();
    (0..n)
        .map(|k| (preferred + k) % n)
        .find(|&s| !shared.shards.is_quarantined(s))
}

fn fail_cell(shared: &Arc<FleetShared>, item: &WorkItem, reason: &str) {
    let reason = reason.to_owned();
    shared.apply_update(item.fleet_id, |job| match (&mut job.kind, item.cell) {
        (FleetJobKind::Single { cell, .. }, None) => {
            *cell = CellState::Failed(reason.clone());
        }
        (FleetJobKind::Batch { cells, .. }, Some(index)) => {
            cells[index] = CellState::Failed(reason.clone());
        }
        _ => {}
    });
}

/// The poller: walks every unsettled fleet job and asks shards about its
/// dispatched cells, landing results (and batch progress) on the board.
fn poller_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for id in shared.board.active_ids() {
            poll_job(shared, id);
        }
        std::thread::sleep(POLL_EVERY);
    }
}

/// One poll pass over a fleet job's dispatched cells.
fn poll_job(shared: &Arc<FleetShared>, id: u64) {
    let Some(job) = shared.board.get(id) else {
        return;
    };
    let dispatched: Vec<(Option<usize>, usize, u64)> = match &job.kind {
        FleetJobKind::Single { cell, .. } => match cell {
            CellState::Dispatched { shard, remote } => vec![(None, *shard, *remote)],
            _ => Vec::new(),
        },
        FleetJobKind::Batch { cells, .. } => cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                CellState::Dispatched { shard, remote } => Some((Some(i), *shard, *remote)),
                _ => None,
            })
            .collect(),
    };
    let before_done = job.cells_done();
    for (cell_index, shard, remote) in dispatched {
        let response = Client::new(shared.shards.addr(shard))
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(Duration::from_secs(5))
            .request("GET", &format!("/v1/jobs/{remote}"), None);
        let record = match response {
            Ok(r) if r.status == 404 => {
                // The shard genuinely lost the job (journal-less restart
                // or eviction) — put the cell back in play.
                shared.metrics.redispatched.fetch_add(1, Ordering::Relaxed);
                let item = WorkItem {
                    fleet_id: id,
                    cell: cell_index,
                };
                shared.apply_update(id, |job| match (&mut job.kind, cell_index) {
                    (FleetJobKind::Single { cell, .. }, None) => *cell = CellState::Pending,
                    (FleetJobKind::Batch { cells, .. }, Some(i)) => {
                        cells[i] = CellState::Pending;
                    }
                    _ => {}
                });
                if shared.queue.requeue(job.class, (job.class, item)).is_err() {
                    fail_cell(shared, &item, "shard lost the job and queue is closed");
                }
                continue;
            }
            // A reply failing its CRC frame is a lying shard: discard it
            // and poll again next tick rather than settle a cell on
            // garbage.
            Ok(r) => match shared.verify_reply(r) {
                Ok(r) => match r.into_result() {
                    Ok(ok) => json::parse(&ok.body).ok(),
                    Err(_) => continue, // transient server-side error; retry next tick
                },
                Err(_) => continue,
            },
            Err(_) => continue, // shard restarting; retry next tick
        };
        let Some(record) = record else { continue };
        let state = record.get("state").and_then(Json::as_str).unwrap_or("");
        let update: Option<CellState> = match state {
            "done" => record.get("result").cloned().map(CellState::Done),
            "failed" => Some(CellState::Failed(
                record
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("shard job failed")
                    .to_owned(),
            )),
            "cancelled" => Some(CellState::Failed("cancelled on shard".to_owned())),
            _ => None, // queued / running — keep polling
        };
        let Some(update) = update else { continue };
        // The `rolling_to` read happens inside the board lock: staged
        // resolution clears the flag *before* taking that lock, so a
        // result landing after resolution scanned the board sees 0 here
        // and settles directly — no cell can stay staged forever.
        shared.apply_update(id, |job| {
            let update = match update.clone() {
                CellState::Done(doc) if shared.rolling_to.load(Ordering::SeqCst) > 0 => {
                    CellState::Staged(doc)
                }
                other => other,
            };
            match (&mut job.kind, cell_index) {
                (FleetJobKind::Single { cell, .. }, None) => *cell = update,
                (FleetJobKind::Batch { cells, .. }, Some(i)) => cells[i] = update,
                _ => {}
            }
        });
    }
    // Publish batch progress when cells landed this pass (settled jobs
    // already published their final snapshot in apply_update).
    if let Some(job) = shared.board.get(id) {
        let (done, total) = (job.cells_done(), job.cells_total());
        if total > 1 && done > before_done && !job.state.is_settled() {
            shared.progress.publish(id, |jp| {
                jp.phase = "measure";
                jp.cells_done = done;
                jp.cells_total = total;
                jp.ops = done;
            });
        }
    }
}

/// The supervisor: periodic health sweep over the shard set. A shard
/// that exhausts its crash-loop budget comes back quarantined — its
/// in-flight cells fail over to healthy shards immediately.
fn supervisor_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for index in shared.shards.check_and_restart() {
            fail_over_shard(shared, index);
        }
        // Sleep in small steps so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < SUPERVISE_EVERY && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            slept += Duration::from_millis(50);
        }
    }
}

/// Re-dispatches every cell that was in flight on a newly quarantined
/// shard: the cell goes back to `Pending` and onto the queue, where
/// [`dispatch`] routes it around the dead slot. The shard's journal
/// still holds the jobs, but nothing will replay it until an operator
/// rolls the shard back in — waiting on it would strand the cells.
fn fail_over_shard(shared: &Arc<FleetShared>, index: usize) {
    for id in shared.board.active_ids() {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        let stranded: Vec<Option<usize>> = match &job.kind {
            FleetJobKind::Single { cell, .. } => match cell {
                CellState::Dispatched { shard, .. } if *shard == index => vec![None],
                _ => Vec::new(),
            },
            FleetJobKind::Batch { cells, .. } => cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| match c {
                    CellState::Dispatched { shard, .. } if *shard == index => Some(Some(i)),
                    _ => None,
                })
                .collect(),
        };
        for cell_index in stranded {
            // Re-check under the board lock: the poller may have landed
            // the cell between the snapshot above and now.
            let mut moved = false;
            shared.apply_update(id, |job| {
                let cell = match (&mut job.kind, cell_index) {
                    (FleetJobKind::Single { cell, .. }, None) => cell,
                    (FleetJobKind::Batch { cells, .. }, Some(i)) => &mut cells[i],
                    _ => return,
                };
                if matches!(cell, CellState::Dispatched { shard, .. } if *shard == index) {
                    *cell = CellState::Pending;
                    moved = true;
                }
            });
            if !moved {
                continue;
            }
            shared.metrics.failover.fetch_add(1, Ordering::Relaxed);
            let item = WorkItem {
                fleet_id: id,
                cell: cell_index,
            };
            if shared.queue.requeue(job.class, (job.class, item)).is_err() {
                fail_cell(shared, &item, "shard quarantined and dispatch queue closed");
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<FleetShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = Response::error(400, ErrorCode::BadRequest, &e.to_string())
                    .write_to(&mut writer, true);
                return;
            }
            Err(_) => return,
        };
        if let Some(id) = events_target(&request) {
            if shared.board.get(id).is_some() {
                let _ = stream_fleet_events(shared, id, &mut writer);
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

/// `GET /v1/jobs/<id>/events` → the fleet job ID; anything else → `None`.
fn events_target(request: &Request) -> Option<u64> {
    if request.method != "GET" {
        return None;
    }
    let path = request
        .path
        .split_once('?')
        .map_or(request.path.as_str(), |(p, _)| p);
    path.strip_prefix("/v1/jobs/")?
        .strip_suffix("/events")?
        .parse()
        .ok()
}

fn route(shared: &Arc<FleetShared>, request: &Request) -> Response {
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => Response::json(
            200,
            &Json::obj([
                ("ok", Json::Bool(true)),
                ("shards", Json::from(shared.shards.len() as u64)),
            ]),
        ),
        ("GET", "/v1/metrics") => metrics_response(shared, query),
        ("POST", "/v1/jobs") => submit(shared, request),
        ("POST", "/v1/shutdown") => shutdown(shared),
        ("GET", "/v1/admin/config") => {
            let machine = shared.config.lock().expect("config lock poisoned");
            Response::json(200, &machine.to_json())
        }
        ("POST", "/v1/admin/config/stage") => admin_stage(shared, request),
        ("POST", "/v1/admin/config/commit") => admin_commit(shared),
        ("POST", "/v1/admin/config/rollback") => admin_rollback(shared),
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return job_route(shared, method, rest);
            }
            if matches!(
                path,
                "/v1/healthz"
                    | "/v1/metrics"
                    | "/v1/jobs"
                    | "/v1/shutdown"
                    | "/v1/admin/config"
                    | "/v1/admin/config/stage"
                    | "/v1/admin/config/commit"
                    | "/v1/admin/config/rollback"
            ) {
                return Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed");
            }
            Response::error(404, ErrorCode::NotFound, "no such endpoint")
        }
    }
}

fn job_route(shared: &Arc<FleetShared>, method: &str, rest: &str) -> Response {
    let (id_text, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, ErrorCode::NotFound, "job IDs are integers");
    };
    match (method, action) {
        ("GET", None) => match shared.board.get(id) {
            Some(job) => Response::json(200, &job.to_json()),
            None => Response::error(404, ErrorCode::NotFound, "no such job"),
        },
        ("POST", Some("cancel")) => {
            // Fetch the quota identity first; cancel only succeeds from
            // `queued`, where the slot is still held.
            let client = shared.board.get(id).map(|j| j.client);
            match shared.board.cancel(id) {
                CancelOutcome::Cancelled => {
                    if let Some(client) = client {
                        shared.quotas.release(&client);
                    }
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
            }
        }
        (_, None) => Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed"),
        _ => Response::error(404, ErrorCode::NotFound, "no such endpoint"),
    }
}

/// Admission: parse → classify → quota-check → plan → enqueue. Quota
/// refusals answer `429 quota_exceeded`; a full class queue answers `503
/// queue_full` — both with the class's `Retry-After`.
fn submit(shared: &Arc<FleetShared>, request: &Request) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, ErrorCode::ShuttingDown, "fleet is shutting down");
    }
    let text = match std::str::from_utf8(&request.body) {
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
    let class = match request.header("x-baryon-class") {
        Some(value) => match Class::parse(value.trim()) {
            Some(class) => class,
            None => {
                return Response::error(
                    400,
                    ErrorCode::BadRequest,
                    &format!("unknown class {value:?}: use interactive or batch"),
                )
            }
        },
        None => match &spec {
            JobSpec::Run(_) => Class::Interactive,
            JobSpec::Grid(_) => Class::Batch,
        },
    };
    let client = request
        .header("x-baryon-client")
        .unwrap_or("anon")
        .trim()
        .to_owned();
    if !shared.quotas.try_acquire(&client) {
        shared
            .metrics
            .rejected_quota
            .fetch_add(1, Ordering::Relaxed);
        return Response::error(
            429,
            ErrorCode::QuotaExceeded,
            &format!(
                "client {client:?} already has {} jobs in flight",
                shared.quotas.max_in_flight()
            ),
        )
        .header("Retry-After", &class.retry_after_secs().to_string());
    }
    // Plan the dispatch: singles hash-route whole; grids scatter
    // cell-by-cell across every shard.
    let (kind, items) = match &spec {
        JobSpec::Run(_) => (
            FleetJobKind::Single {
                shard: 0, // patched below once the fleet ID is known
                cell: CellState::Pending,
            },
            Vec::new(),
        ),
        JobSpec::Grid(grid) => {
            let plan = BatchPlan::scatter(grid, shared.shards.len());
            let n = plan.cells.len();
            (
                FleetJobKind::Batch {
                    plan,
                    cells: vec![CellState::Pending; n],
                },
                (0..n).collect(),
            )
        }
    };
    let single = items.is_empty();
    let id = shared.board.admit(spec, client.clone(), class, kind);
    if single {
        // The route is a function of the fleet ID, which admit assigned.
        let shard = crate::shard::route(id, shared.shards.len());
        shared.board.update(id, |job| {
            if let FleetJobKind::Single { shard: s, .. } = &mut job.kind {
                *s = shard;
            }
        });
    }
    let work: Vec<WorkItem> = if single {
        vec![WorkItem {
            fleet_id: id,
            cell: None,
        }]
    } else {
        items
            .into_iter()
            .map(|cell| WorkItem {
                fleet_id: id,
                cell: Some(cell),
            })
            .collect()
    };
    let cells_total = work.len() as u64;
    for (i, item) in work.iter().enumerate() {
        match shared.queue.push(class, (class, *item)) {
            Ok(()) => {}
            Err(e) => {
                // Roll the whole job back; cells already queued will find
                // the job forgotten and drop on the dispatch floor.
                shared.board.forget(id);
                shared.quotas.release(&client);
                shared
                    .metrics
                    .rejected_queue
                    .fetch_add(1, Ordering::Relaxed);
                let (status, code, message) = match e {
                    QueueError::Full => (
                        503,
                        ErrorCode::QueueFull,
                        format!(
                            "{} queue full after {i} of {cells_total} cells, retry later",
                            class.as_str()
                        ),
                    ),
                    QueueError::Closed => (
                        503,
                        ErrorCode::ShuttingDown,
                        "fleet is shutting down".to_owned(),
                    ),
                };
                return Response::error(status, code, &message)
                    .header("Retry-After", &class.retry_after_secs().to_string());
            }
        }
    }
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    Response::json(
        202,
        &Json::obj([
            ("id", Json::from(id)),
            ("state", Json::from("queued")),
            ("class", Json::from(class.as_str())),
            ("cells", Json::from(cells_total)),
        ]),
    )
}

// ---------------------------------------------------------------------------
// Fleet config rollout: the /v1/admin surface and the rolling-restart engine.
// ---------------------------------------------------------------------------

/// Where a slot's policy file lives.
fn slot_policy_path(config_dir: &Path, slot: Slot) -> PathBuf {
    config_dir.join(format!("slot-{}.json", slot.as_str()))
}

/// Loads the persisted slot machine, falling back to the boot state on a
/// missing or unreadable file — a corrupt slots file must never brick the
/// fleet, it just forgets staged candidates.
fn load_slot_machine(config_dir: &Path) -> SlotMachine {
    let path = config_dir.join("slots.bin");
    let Ok(bytes) = std::fs::read(&path) else {
        return SlotMachine::new();
    };
    let mut reader = wire::Reader::new(&bytes);
    match SlotMachine::load_state(&mut reader) {
        Ok(machine) => machine,
        Err(e) => {
            eprintln!(
                "baryon-fleet: ignoring corrupt config slots {}: {e:?}",
                path.display()
            );
            SlotMachine::new()
        }
    }
}

fn persist_slot_machine(shared: &FleetShared, machine: &SlotMachine) {
    let mut w = wire::Writer::new();
    machine.save_state(&mut w);
    if let Err(e) = atomic_write(&shared.config_dir.join("slots.bin"), &w.into_bytes()) {
        eprintln!("baryon-fleet: cannot persist config slots: {e}");
    }
}

/// `POST /v1/admin/config/stage` — validate the candidate policy and
/// persist it into the non-active slot.
fn admin_stage(shared: &Arc<FleetShared>, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, ErrorCode::BadRequest, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::error(400, ErrorCode::InvalidJson, &format!("invalid JSON: {e}"))
        }
    };
    let policy = match FleetPolicy::from_json(&doc) {
        Ok(policy) => policy,
        Err(e) => {
            return Response::error(
                400,
                ErrorCode::InvalidConfig,
                &format!("invalid policy: {e}"),
            )
        }
    };
    let mut machine = shared.config.lock().expect("config lock poisoned");
    let (slot, generation) = match machine.stage(policy) {
        Ok(staged) => staged,
        Err(StageError::Invalid(e)) => {
            return Response::error(
                400,
                ErrorCode::InvalidConfig,
                &format!("invalid policy: {e}"),
            )
        }
        Err(StageError::RolloutInFlight) => {
            return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
        }
    };
    // The commit engine boots shards onto this file; it must be durable
    // before the stage is acknowledged.
    let body = match &machine.slot(slot).policy {
        Some(staged) => staged.to_json().render(),
        None => return Response::error(500, ErrorCode::Internal, "staged slot lost its policy"),
    };
    if let Err(e) = atomic_write(&slot_policy_path(&shared.config_dir, slot), body.as_bytes()) {
        return Response::error(
            500,
            ErrorCode::Internal,
            &format!("cannot persist staged policy: {e}"),
        );
    }
    persist_slot_machine(shared, &machine);
    Response::json(
        200,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("slot", Json::from(slot.as_str())),
            ("generation", Json::from(generation)),
        ]),
    )
}

/// `POST /v1/admin/config/commit` — rolling restart onto the staged slot,
/// auto-rolling back to the active policy if any shard fails its health
/// probe or canary, or if job failures regress during the roll.
fn admin_commit(shared: &Arc<FleetShared>) -> Response {
    let Ok(_guard) = shared.rollout.try_lock() else {
        return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight");
    };
    let (target, generation, old_path) = {
        let mut machine = shared.config.lock().expect("config lock poisoned");
        let (active, info) = machine.active();
        let old_path = (info.generation > 0).then(|| slot_policy_path(&shared.config_dir, active));
        match machine.begin_commit() {
            Ok((slot, generation)) => (slot, generation, old_path),
            Err(CommitError::NothingStaged) => {
                return Response::error(
                    409,
                    ErrorCode::Conflict,
                    "nothing staged; stage a config first",
                )
            }
            Err(CommitError::RolloutInFlight) => {
                return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
            }
        }
    };
    let new_path = Some(slot_policy_path(&shared.config_dir, target));
    // From here until the roll settles, results landing on the board are
    // staged, not gathered: they may have been computed under a
    // generation that is about to be rolled back.
    shared.rolling_to.store(generation.max(1), Ordering::SeqCst);
    match roll_fleet(shared, new_path, old_path) {
        Ok(()) => {
            resolve_staged_results(shared, true);
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_succeeded();
            persist_slot_machine(shared, &machine);
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("active_slot", Json::from(target.as_str())),
                    ("generation", Json::from(generation)),
                ]),
            )
        }
        Err(reason) => {
            resolve_staged_results(shared, false);
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_failed();
            persist_slot_machine(shared, &machine);
            Response::error(
                409,
                ErrorCode::RolloutFailed,
                &format!("commit of generation {generation} rolled back: {reason}"),
            )
        }
    }
}

/// Settles the roll's staged results once its outcome is known. On a
/// committed roll the results are promoted (jobs settle, quotas release,
/// streams wake). On a rolled-back roll they are quarantined — counted
/// in `fleet.config.quarantined_results` — and their cells requeued for
/// re-dispatch under the restored config, so the job's eventual gather
/// is byte-identical to one computed wholly under that config.
fn resolve_staged_results(shared: &Arc<FleetShared>, accept: bool) {
    // Clear the flag before scanning: any result that lands after the
    // scan observes 0 (the load is under the same board lock) and
    // settles directly instead of staging forever.
    shared.rolling_to.store(0, Ordering::SeqCst);
    let resolution = shared.board.resolve_staged(accept);
    for (id, client, _class) in &resolution.released {
        shared.settle_bookkeeping(*id, client);
    }
    if !accept && resolution.count > 0 {
        shared
            .metrics
            .quarantined_results
            .fetch_add(resolution.count, Ordering::Relaxed);
    }
    for (id, cell_index) in resolution.requeue {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        let item = WorkItem {
            fleet_id: id,
            cell: cell_index,
        };
        if shared.queue.requeue(job.class, (job.class, item)).is_err() {
            fail_cell(shared, &item, "staged result quarantined and queue closed");
        }
    }
}

/// `POST /v1/admin/config/rollback` — the same rolling mechanism, back
/// onto the previous slot.
fn admin_rollback(shared: &Arc<FleetShared>) -> Response {
    let Ok(_guard) = shared.rollout.try_lock() else {
        return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight");
    };
    let (target, generation, current_path) = {
        let mut machine = shared.config.lock().expect("config lock poisoned");
        let (active, info) = machine.active();
        let current = (info.generation > 0).then(|| slot_policy_path(&shared.config_dir, active));
        match machine.begin_rollback() {
            Ok((slot, generation)) => (slot, generation, current),
            Err(RollbackError::NoPrevious) => {
                return Response::error(
                    409,
                    ErrorCode::Conflict,
                    "no previous config to roll back to",
                )
            }
            Err(RollbackError::RolloutInFlight) => {
                return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
            }
        }
    };
    // Generation 0 is the built-in baseline: no policy file at all.
    let target_path = (generation > 0).then(|| slot_policy_path(&shared.config_dir, target));
    match roll_fleet(shared, target_path, current_path) {
        Ok(()) => {
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_succeeded();
            persist_slot_machine(shared, &machine);
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("active_slot", Json::from(target.as_str())),
                    ("generation", Json::from(generation)),
                ]),
            )
        }
        Err(reason) => {
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_failed();
            persist_slot_machine(shared, &machine);
            Response::error(
                409,
                ErrorCode::RolloutFailed,
                &format!("rollback to generation {generation} failed: {reason}"),
            )
        }
    }
}

/// Rolls every shard onto `new_path`, one at a time. On any failure the
/// already-rolled shards (and the failing one) are rolled back onto
/// `old_path` before returning the error — the fleet never stays split
/// across policies longer than the undo takes.
fn roll_fleet(
    shared: &Arc<FleetShared>,
    new_path: Option<PathBuf>,
    old_path: Option<PathBuf>,
) -> Result<(), String> {
    let failed_before = shared.metrics.failed.load(Ordering::Relaxed);
    let undo = |upto: usize| {
        for j in (0..=upto).rev() {
            if let Err(e) = roll_shard(shared, j, old_path.clone()) {
                // Best effort: unpause and let the supervisor respawn it.
                eprintln!("baryon-fleet: rollback of shard {j} failed: {e}");
                shared.shards.unpause(j);
            }
        }
    };
    for i in 0..shared.shards.len() {
        if let Err(reason) = roll_shard(shared, i, new_path.clone()) {
            undo(i);
            return Err(format!("shard {i}: {reason}"));
        }
    }
    // The canary exercised each shard in isolation; a config can pass it
    // and still fail real jobs. A regressing fleet-wide failure counter
    // during the roll is a rollback, not a success.
    let failed_after = shared.metrics.failed.load(Ordering::Relaxed);
    if failed_after > failed_before {
        undo(shared.shards.len() - 1);
        return Err(format!(
            "{} job(s) failed during the roll",
            failed_after - failed_before
        ));
    }
    Ok(())
}

/// Rolls one shard: pause → drain in-flight cells → respawn with the
/// policy → health probe green → canary run. Unpauses on success; leaves
/// the shard paused on failure so no work lands on it until the caller's
/// rollback has restored the old policy.
fn roll_shard(
    shared: &Arc<FleetShared>,
    index: usize,
    policy_path: Option<PathBuf>,
) -> Result<(), String> {
    shared.shards.pause(index);
    let outcome = drain_shard(shared, index)
        .and_then(|()| {
            shared
                .shards
                .restart_with_policy(index, policy_path)
                .map_err(|e| format!("respawn failed: {e}"))
        })
        .and_then(|()| probe_green(shared, index))
        .and_then(|()| canary(shared, index));
    if outcome.is_ok() {
        shared.shards.unpause(index);
    }
    outcome
}

/// How long a rolling restart waits for a paused shard's cells to land.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Waits until the shard has no dispatched cells (the poller lands them
/// as they finish; new dispatches requeue while the shard is paused).
fn drain_shard(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while shard_busy(shared, index) {
        if Instant::now() >= deadline {
            return Err("drain timed out with cells still in flight".to_owned());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(())
}

/// Whether any unsettled fleet job has a cell dispatched on the shard.
fn shard_busy(shared: &Arc<FleetShared>, index: usize) -> bool {
    for id in shared.board.active_ids() {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        let busy = match &job.kind {
            // Match on where the cell actually landed, not the routed
            // shard — failover can dispatch a single off its home route.
            FleetJobKind::Single { cell, .. } => {
                matches!(cell, CellState::Dispatched { shard, .. } if *shard == index)
            }
            FleetJobKind::Batch { cells, .. } => cells
                .iter()
                .any(|c| matches!(c, CellState::Dispatched { shard, .. } if *shard == index)),
        };
        if busy {
            return true;
        }
    }
    false
}

/// How long a restarted shard has to answer 3 green health probes.
const PROBE_BUDGET: Duration = Duration::from_secs(10);

/// Requires 3 consecutive green health probes within the probe budget.
fn probe_green(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut green = 0;
    loop {
        let ok = Client::new(shared.shards.addr(index))
            .connect_timeout(Duration::from_millis(250))
            .read_timeout(Duration::from_millis(500))
            .healthz()
            .is_ok();
        green = if ok { green + 1 } else { 0 };
        if green >= 3 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("health probe never went green".to_owned());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A tiny deterministic run POSTed straight to the restarted shard: the
/// cheapest end-to-end proof the new config actually executes jobs — a
/// config can bind and answer healthz yet fail every run (e.g. an
/// unmeetable job deadline).
/// Heavy enough (hundreds of thousands of instructions) that a canary
/// under a pathological deadline policy fails deterministically rather
/// than racing the watchdog, yet still well under a second per shard.
const CANARY_SPEC: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":400000,"warmup":20000,"scale":2048,"seed":1}"#;

/// How long the canary run may take before the roll is declared failed.
const CANARY_TIMEOUT: Duration = Duration::from_secs(30);

fn canary(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let client = Client::new(shared.shards.addr(index))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(10));
    let accepted = client
        .request("POST", "/v1/jobs", Some(CANARY_SPEC))
        .map_err(|e| format!("canary submit failed: {e}"))
        .and_then(|r| shared.verify_reply(r).map_err(|e| e.to_string()))?
        .into_result()
        .map_err(|e| format!("canary submit rejected: {e}"))?;
    let id = json::parse(&accepted.body)
        .ok()
        .as_ref()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| "canary 202 body unreadable".to_owned())?;
    let deadline = Instant::now() + CANARY_TIMEOUT;
    loop {
        let record = client
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .ok()
            .and_then(|r| shared.verify_reply(r).ok())
            .and_then(|r| r.into_result().ok())
            .and_then(|r| json::parse(&r.body).ok());
        if let Some(record) = record {
            match record.get("state").and_then(Json::as_str) {
                Some("done") => return Ok(()),
                Some("failed") => {
                    return Err(format!(
                        "canary failed under the new config: {}",
                        record
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("no error detail")
                    ))
                }
                _ => {}
            }
        }
        if Instant::now() >= deadline {
            return Err("canary never settled".to_owned());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `GET /v1/metrics` — one registry for the whole fleet: coordinator
/// counters under `fleet.*`, plus every reachable shard's full-fidelity
/// wire registry absorbed under `shard<i>.`. The merge starts from a
/// fresh registry each scrape, so a restarted shard's counters replace
/// (not double-count) its previous incarnation's.
fn metrics_response(shared: &Arc<FleetShared>, _query: &str) -> Response {
    let mut reg = Registry::new();
    let m = &shared.metrics;
    reg.set_counter("fleet.jobs.submitted", m.submitted.load(Ordering::Relaxed));
    reg.set_counter(
        "fleet.jobs.rejected_quota",
        m.rejected_quota.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "fleet.jobs.rejected_queue",
        m.rejected_queue.load(Ordering::Relaxed),
    );
    reg.set_counter("fleet.jobs.done", m.done.load(Ordering::Relaxed));
    reg.set_counter("fleet.jobs.failed", m.failed.load(Ordering::Relaxed));
    reg.set_counter("fleet.jobs.cancelled", m.cancelled.load(Ordering::Relaxed));
    reg.set_counter(
        "fleet.dispatch.requeued",
        m.redispatched.load(Ordering::Relaxed),
    );
    reg.set_counter("fleet.shards.total", shared.shards.len() as u64);
    reg.set_counter("fleet.shards.restarts", shared.shards.restarts());
    reg.set_gauge(
        "fleet.shards.quarantined",
        shared.shards.quarantined_count() as f64,
    );
    reg.set_counter("fleet.cells.failover", m.failover.load(Ordering::Relaxed));
    reg.set_counter(
        "fleet.shard.reply_errors",
        m.reply_errors.load(Ordering::Relaxed),
    );
    reg.set_counter(
        "fleet.config.quarantined_results",
        m.quarantined_results.load(Ordering::Relaxed),
    );
    {
        let machine = shared.config.lock().expect("config lock poisoned");
        reg.set_gauge(
            "fleet.config.generation",
            machine.active().1.generation as f64,
        );
        reg.set_counter("fleet.config.rollbacks", machine.rollbacks());
    }
    for i in 0..shared.shards.len() {
        reg.set_gauge(
            &format!("fleet.shard{i}.respawn_backoff_ms"),
            shared.shards.respawn_backoff_ms(i) as f64,
        );
    }
    let (interactive, batch) = shared.queue.depths();
    reg.set_counter("fleet.queue.interactive_depth", interactive as u64);
    reg.set_counter("fleet.queue.batch_depth", batch as u64);
    let mut unreachable = 0;
    for i in 0..shared.shards.len() {
        let fetched = Client::new(shared.shards.addr(i))
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(Duration::from_secs(5))
            .request("GET", "/v1/metrics?format=wire", None)
            .ok()
            .and_then(|r| shared.verify_reply(r).ok())
            .and_then(|r| r.into_result().ok())
            .and_then(|r| json::parse(&r.body).ok())
            .and_then(|doc| doc.get("wire").and_then(Json::as_str).map(str::to_owned))
            .and_then(|hex| wire::from_hex(&hex).ok())
            .and_then(|bytes| {
                let mut reader = wire::Reader::new(&bytes);
                Registry::load_state(&mut reader).ok()
            });
        match fetched {
            Some(shard_reg) => reg.absorb(&format!("shard{i}"), &shard_reg),
            None => unreachable += 1,
        }
    }
    reg.set_counter("fleet.shards.unreachable", unreachable);
    Response::json(200, &reg.to_json())
}

fn shutdown(shared: &Arc<FleetShared>) -> Response {
    let (interactive, batch) = shared.queue.depths();
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    let _ = TcpStream::connect(shared.addr);
    Response::json(
        200,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("draining", Json::from((interactive + batch) as u64)),
        ]),
    )
}

/// How many empty 500 ms waits between `alive` heartbeats on an idle
/// fleet event stream.
const STREAM_HEARTBEAT_WAITS: u32 = 20;

/// Streams a fleet job's events. Batch jobs synthesize `progress` from
/// the coordinator's cell bookkeeping; single runs proxy the executing
/// shard's own event stream with the shard-local ID rewritten to the
/// fleet ID (and a monotonicity filter so a shard restart's replayed
/// early events never reach the client out of order).
fn stream_fleet_events(
    shared: &Arc<FleetShared>,
    id: u64,
    writer: &mut TcpStream,
) -> io::Result<()> {
    let mut stream = ChunkedWriter::begin(&mut *writer, 200, &[])?;
    let mut last_seq = 0;
    let mut last_ops = 0;
    let mut idle_waits = 0;
    loop {
        let Some(job) = shared.board.get(id) else {
            return end_event(stream, id, "evicted");
        };
        if job.state.is_settled() {
            return end_event(stream, id, job.state.as_str());
        }
        // A dispatched single run proxies the shard's stream directly —
        // live simulator progress, not 100 ms polling granularity.
        if let FleetJobKind::Single {
            shard,
            cell: CellState::Dispatched { remote, .. },
        } = &job.kind
        {
            proxy_single_stream(shared, id, *shard, *remote, &mut stream, &mut last_ops)?;
            // The shard's stream ended (job settled there, or the shard
            // died mid-run). Loop: the poller lands the result, or the
            // restarted shard's resumed job re-opens above.
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        // Queued singles and batches watch the coordinator's own board.
        if let Some(p) = shared.progress.get(id) {
            if p.seq > last_seq {
                last_seq = p.seq;
                idle_waits = 0;
                let mut line = p.to_json(id).render();
                line.push('\n');
                stream.chunk(line.as_bytes())?;
            }
        }
        if shared
            .progress
            .wait_past(id, last_seq, Duration::from_millis(500))
            .is_none()
        {
            idle_waits += 1;
            if idle_waits >= STREAM_HEARTBEAT_WAITS {
                idle_waits = 0;
                let mut line =
                    Json::obj([("event", Json::from("alive")), ("id", Json::from(id))]).render();
                line.push('\n');
                stream.chunk(line.as_bytes())?;
            }
        }
    }
}

fn end_event(mut stream: ChunkedWriter<&mut TcpStream>, id: u64, state: &str) -> io::Result<()> {
    let mut line = Json::obj([
        ("event", Json::from("end")),
        ("id", Json::from(id)),
        ("state", Json::from(state)),
    ])
    .render();
    line.push('\n');
    stream.chunk(line.as_bytes())?;
    stream.finish()
}

/// Follows one shard-local event stream, forwarding `progress` and
/// `alive` events with the ID rewritten to the fleet ID. The shard's own
/// `end` event is swallowed — the fleet-level end comes from the board
/// once the poller lands the result. Returns when the shard stream closes
/// or errors (the caller re-checks the board and reconnects).
fn proxy_single_stream(
    shared: &Arc<FleetShared>,
    fleet_id: u64,
    shard: usize,
    remote: u64,
    stream: &mut ChunkedWriter<&mut TcpStream>,
    last_ops: &mut u64,
) -> io::Result<()> {
    let mut write_error: Option<io::Error> = None;
    let outcome = Client::new(shared.shards.addr(shard))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(30))
        .stream(&format!("/v1/jobs/{remote}/events"), &mut |line| {
            if write_error.is_some() {
                return; // client is gone; drain the shard stream quietly
            }
            let Ok(mut doc) = json::parse(line) else {
                return;
            };
            match doc.get("event").and_then(Json::as_str) {
                Some("progress") => {
                    // After a shard restart the resumed run replays from
                    // its checkpoint; drop anything at or behind what the
                    // client already saw so `ops` stays strictly monotonic.
                    let ops = doc.get("ops").and_then(Json::as_u64).unwrap_or(0);
                    if ops <= *last_ops {
                        return;
                    }
                    *last_ops = ops;
                }
                Some("alive") => {}
                _ => return, // `end` (and anything unknown) is not forwarded
            }
            set_field(&mut doc, "id", Json::from(fleet_id));
            let mut text = doc.render();
            text.push('\n');
            if let Err(e) = stream.chunk(text.as_bytes()) {
                write_error = Some(e);
            }
        });
    if let Some(e) = write_error {
        return Err(e); // the streaming client hung up
    }
    // Shard-side errors (404 from a journal-less restart, connection
    // drop mid-restart) are not fatal to the fleet stream — the caller
    // loops and reconnects.
    let _ = outcome;
    Ok(())
}

/// Replaces (or appends) `key` in a JSON object.
fn set_field(doc: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = doc {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_owned(), value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_field_replaces_or_appends() {
        let mut doc = json::parse(r#"{"id":3,"state":"done","ops":42}"#).expect("valid");
        set_field(&mut doc, "id", Json::from(9u64));
        set_field(&mut doc, "extra", Json::Bool(true));
        assert_eq!(
            doc.render(),
            r#"{"id":9,"state":"done","ops":42,"extra":true}"#
        );
        // Non-objects are left alone.
        let mut arr = Json::Arr(vec![]);
        set_field(&mut arr, "id", Json::Null);
        assert_eq!(arr, Json::Arr(vec![]));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = FleetConfig::default();
        assert!(cfg.shards > 0);
        assert!(cfg.queue_cap >= cfg.shard_queue_depth);
        assert!(cfg.max_in_flight_per_client > 0);
    }
}
