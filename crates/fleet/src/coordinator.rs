//! The fleet coordinator: one front-door HTTP server over N shards.
//!
//! The coordinator owns no simulation code and makes no dispatch
//! decision: those are [`FleetCore`]'s, kept under one `Mutex` with one
//! `Condvar` that every core update notifies. This module is the shell
//! around it: HTTP routes, one dispatch slot thread per shard worker, the
//! supervisor, and the rollout engine. A slot waits until the core hands
//! its shard a cell, POSTs it there, and follows the shard-local job to
//! its end ([`follow`]), so a cell runs on whichever shard has a free
//! worker. The coordinator proxies event streams and merges every
//! shard's full-fidelity wire metrics into one fleet-wide registry under
//! `shard<i>.` namespaces.
//!
//! Supervision is the shard set's ([`crate::shard::ShardSet`]): a killed
//! or wedged shard is restarted on its own journal directory, replays its
//! write-ahead journal, and resumes interrupted runs from checkpoints —
//! a slot keeps following the same shard-local job ID at the new address,
//! so a mid-sweep `SIGKILL` costs latency, never results. A quarantined
//! shard's slots hand their cells back to the queue and pull no more.

use crate::config::{CommitError, RollbackError, Slot, SlotMachine, StageError};
use crate::fleet_core::{CellState, Class, FleetCore, FleetJob, Publish, Refusal, Work, WorkItem};
use crate::shard::{ShardLauncher, ShardSet};
use baryon_bench::spec::JobSpec;
use baryon_compress::crc::crc32;
use baryon_core::checkpoint::atomic_write;
use baryon_core::policy::FleetPolicy;
use baryon_serve::client::{Client, ClientError, ClientResponse};
use baryon_serve::error::ErrorCode;
use baryon_serve::http::{read_request, ChunkedWriter, Request, Response, CRC_HEADER};
use baryon_serve::job::CancelOutcome;
use baryon_serve::progress::{end_stream, events_target, send_event, EventCursor, ProgressBoard};
use baryon_sim::json::{self, Json};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Coordinator construction knobs (the CLI's `fleet` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// TCP port on 127.0.0.1; `0` asks for an ephemeral port.
    pub port: u16,
    /// Number of worker shards to spawn and supervise.
    pub shards: usize,
    /// Worker threads per shard. [`Fleet::bind`] does not read it: the
    /// CLI copies it into [`ShardLauncher::workers`], which sizes both the
    /// shards and their dispatch slots.
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

/// State shared by the accept loop, handlers, dispatch slots, and the
/// supervisor.
struct FleetShared {
    /// Every dispatch decision ([`FleetCore`]).
    core: Mutex<FleetCore>,
    /// Notified after every core update: slots wait on it for a cell, a
    /// rolling restart for its shard to drain, the supervisor for
    /// shutdown.
    changed: Condvar,
    shards: ShardSet,
    progress: ProgressBoard,
    addr: SocketAddr,
    /// The A/B config slot machine (persisted under `config_dir`).
    config: Mutex<SlotMachine>,
    /// Where slot policies and the machine state live
    /// (`<journal_root>/config/`).
    config_dir: PathBuf,
    /// Serializes rollouts: commit/rollback hold this for the whole
    /// rolling restart so at most one engine runs.
    rollout: Mutex<()>,
}

impl FleetShared {
    /// Fresh coordinator state over already-spawned shards.
    fn new(
        cfg: &FleetConfig,
        shards: ShardSet,
        addr: SocketAddr,
        config: SlotMachine,
        config_dir: PathBuf,
    ) -> FleetShared {
        FleetShared {
            core: Mutex::new(FleetCore::new(
                shards.len(),
                cfg.queue_cap,
                cfg.max_in_flight_per_client,
            )),
            changed: Condvar::new(),
            shards,
            progress: ProgressBoard::new(),
            addr,
            config: Mutex::new(config),
            config_dir,
            rollout: Mutex::new(()),
        }
    }

    /// The core, for reads.
    fn core(&self) -> MutexGuard<'_, FleetCore> {
        self.core.lock().expect("fleet core lock poisoned")
    }

    /// Runs one core update and wakes every waiter.
    fn update<R>(&self, apply: impl FnOnce(&mut FleetCore) -> R) -> R {
        let out = apply(&mut self.core());
        self.changed.notify_all();
        out
    }

    /// Publishes what a core update owes the progress board. It runs after
    /// the core lock is released: the job's end is then visible to a
    /// stream's `ended` check before the publish that wakes it.
    fn publish(&self, updates: impl IntoIterator<Item = Publish>) {
        for update in updates {
            self.progress.publish(update.job, |jp| {
                jp.phase = if update.settled { "done" } else { "measure" };
                // Slots land concurrently: a stale count never goes back.
                jp.cells_done = update.cells_done.max(jp.cells_done);
                jp.cells_total = update.cells_total;
                jp.ops = update.cells_done.max(jp.ops);
            });
            if let Some(evicted) = update.evicted {
                self.progress.remove(evicted);
            }
        }
    }

    /// Blocks until the core hands shard `shard` a cell; `None` once the
    /// fleet closes.
    fn next_cell(&self, shard: usize) -> Option<Work> {
        let mut core = self.core();
        loop {
            if core.is_closed() {
                return None;
            }
            if let Some(work) = core.next_cell(shard) {
                return Some(work);
            }
            core = self.changed.wait(core).expect("fleet core lock poisoned");
        }
    }

    /// Validates the CRC frame every shard stamps on its replies
    /// ([`CRC_HEADER`]). A mismatch means the body was corrupted after
    /// the shard computed it — the reply is discarded (typed
    /// [`ShardError::Corrupt`], counted in `fleet.shard.reply_errors`)
    /// rather than trusted, and callers treat it like any transient
    /// shard failure: ask again or requeue.
    fn verify_reply(&self, response: ClientResponse) -> Result<ClientResponse, ShardError> {
        let Some(claimed) = response.header(CRC_HEADER).map(str::to_owned) else {
            return Ok(response); // no frame (e.g. a pre-CRC shard) — accept
        };
        let actual = crc32(response.body.as_bytes());
        if claimed == format!("{actual:08x}") {
            return Ok(response);
        }
        self.core().reply_error();
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

    /// Pauses dispatch and supervision for a shard (test hook — the
    /// rollout engine pauses shards itself during commit/rollback).
    pub fn pause_shard(&self, index: usize) {
        self.shared.update(|core| core.pause(index));
    }

    /// Resumes a paused shard.
    pub fn unpause_shard(&self, index: usize) {
        self.shared.update(|core| core.unpause(index));
    }

    /// How many shards are currently quarantined (crash-loop budget
    /// exhausted, out of rotation).
    pub fn quarantined_shards(&self) -> u64 {
        self.shared.core().quarantined_count()
    }

    /// Whether shard `index` is quarantined.
    pub fn shard_is_quarantined(&self, index: usize) -> bool {
        self.shared.core().is_quarantined(index)
    }

    /// The shard a job's cell is dispatched to, read from the board;
    /// `None` while the cell waits in the queue or once it has landed.
    pub fn dispatched_shard(&self, id: u64, cell: usize) -> Option<usize> {
        match self.shared.core().job(id)?.cells.get(cell)?.state {
            CellState::Dispatched { shard, .. } => Some(shard),
            _ => None,
        }
    }
}

/// A bound, running fleet (shards spawned, dispatch slot and supervisor
/// threads live; call [`Fleet::run`] to serve connections).
pub struct Fleet {
    listener: TcpListener,
    shared: Arc<FleetShared>,
    slots: Vec<std::thread::JoinHandle<()>>,
    supervisor: std::thread::JoinHandle<()>,
}

/// Supervisor cadence: how often shards are probed and the dead restarted.
const SUPERVISE_EVERY: Duration = Duration::from_millis(500);
/// How long [`follow`] waits before asking an unreachable or garbling
/// shard again.
const FOLLOW_RETRY: Duration = Duration::from_millis(50);
/// [`follow`]'s read timeout: longer than serve's 10 s `alive` heartbeat,
/// so a live event stream never times out.
const FOLLOW_READ: Duration = Duration::from_secs(30);

impl Fleet {
    /// Spawns the shard processes, binds `127.0.0.1:<port>`, and starts
    /// one dispatch slot per shard worker (`cfg.shards × launcher.workers`)
    /// and the supervisor.
    ///
    /// # Errors
    ///
    /// Shard spawn failures (the launcher's program missing, a shard
    /// exiting before announcing its address) and the bind failure; any
    /// already-spawned shards are killed before returning.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards`, `cfg.queue_cap`,
    /// `cfg.max_in_flight_per_client`, or `launcher.workers` is zero.
    pub fn bind(cfg: FleetConfig, mut launcher: ShardLauncher) -> io::Result<Fleet> {
        let workers = launcher.workers;
        assert!(workers > 0, "a shard needs at least one worker");
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
        let addr = listener.local_addr()?;
        let shared = Arc::new(FleetShared::new(&cfg, shards, addr, machine, config_dir));
        let slots = (0..cfg.shards * workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shard = i / workers;
                std::thread::Builder::new()
                    .name(format!("baryon-fleet-slot-{i}"))
                    .spawn(move || slot_loop(&shared, shard))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("baryon-fleet-supervisor".to_owned())
                .spawn(move || supervisor_loop(&shared))?
        };
        Ok(Fleet {
            listener,
            shared,
            slots,
            supervisor,
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

    /// Serves until `POST /v1/shutdown`, then joins the dispatch slots
    /// (each lets go of its cell at shutdown, or once the cell's stream
    /// closes), stops the supervisor, and shuts the shards down.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.core().is_closed() {
                break;
            }
            let Ok(stream) = stream else {
                continue;
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        for slot in self.slots {
            let _ = slot.join();
        }
        let _ = self.supervisor.join();
        self.shared.shards.shutdown();
        Ok(())
    }
}

/// One dispatch slot, a worker of shard `shard`: it waits for the core to
/// hand its shard a cell, POSTs the cell there, and follows it to its end
/// before pulling again, so a shard never holds more cells than it has
/// workers. Exits once the fleet closes.
fn slot_loop(shared: &FleetShared, shard: usize) {
    while let Some(Work { item, spec }) = shared.next_cell(shard) {
        let followed = match post_run(shared, shard, &spec.to_json().render()) {
            Ok(Some(remote)) => {
                shared.core().posted(shard, item, remote);
                follow(shared, shard, remote, None)
            }
            // The shard may recover: hand the cell back.
            Ok(None) => Followed::Lost,
            Err(reason) => Followed::Settled(Err(reason)),
        };
        land(shared, shard, item, followed);
    }
}

/// POSTs a run spec to `shard`: `Ok(Some(remote))` once the shard accepts
/// it, `Ok(None)` when the shard may yet recover and the POST should be
/// retried later, and `Err` when the shard refused the run for good.
fn post_run(shared: &FleetShared, shard: usize, spec: &str) -> Result<Option<u64>, String> {
    let response =
        match shared
            .shards
            .client(shard)
            .request_with_retry("POST", "/v1/jobs", Some(spec))
        {
            // A 5xx survived the client's retries: 503 means queue full /
            // shutting down, 500 a transient shard-side fault (e.g. the
            // journal under a hostile disk refusing the submission). Either
            // way the shard may recover — never fail the run on a
            // server-side error. Connect/timeout: the shard is restarting.
            Ok(response) if response.status < 500 => response,
            _ => return Ok(None),
        };
    // A corrupt 202 is indistinguishable from garbage: the shard may or
    // may not hold the job. Retry — a shard job nobody follows costs only
    // its run.
    let Ok(response) = shared.verify_reply(response) else {
        return Ok(None);
    };
    // The shard understood the request and refused it (e.g. invalid spec
    // surfaced late); retrying cannot change a deterministic rejection.
    let accepted = response
        .into_result()
        .map_err(|e| format!("shard rejected job: {e}"))?;
    json::parse(&accepted.body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .map(Some)
        .ok_or_else(|| "shard sent an unreadable 202 body".to_owned())
}

/// How a shard-local job [`follow`] watched ended.
#[derive(Debug, PartialEq)]
enum Followed {
    /// It settled: its result document, or why it failed.
    Settled(Result<Json, String>),
    /// The shard answered `404`: it no longer holds the job.
    Lost,
    /// The shard is unreachable and quarantined.
    Quarantined,
    /// `until` passed, or the fleet is shutting down. Both are checked at
    /// every stream event and `until` also bounds each read, so a follow
    /// overruns `until` by at most serve's 10 s `alive` heartbeat.
    TimedOut,
}

/// Follows shard-local job `remote` on `shard` to its end — the one way
/// the coordinator learns that a shard job finished. The CRC-verified
/// `GET /v1/jobs/<remote>` record is the single truth. While it is
/// unsettled, the job's event stream is read until it closes; the stream
/// only wakes the loop, so a dropped stream or a garbled line can never
/// settle a cell. An unreachable shard is asked again every 50 ms under
/// the same ID (a `SIGKILL`ed shard replays its journal and keeps it)
/// until the supervisor quarantines it.
fn follow(shared: &FleetShared, shard: usize, remote: u64, until: Option<Instant>) -> Followed {
    let closed = || shared.core().is_closed();
    let status = format!("/v1/jobs/{remote}");
    loop {
        let wait = match until {
            None => FOLLOW_READ,
            Some(until) => until.saturating_duration_since(Instant::now()),
        };
        if wait.is_zero() || closed() {
            return Followed::TimedOut;
        }
        // The address changes across restarts; read it every pass.
        let client = Client::new(shared.shards.addr(shard))
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(wait.min(FOLLOW_READ));
        let reply = match client.request("GET", &status, None) {
            Ok(reply) if reply.status == 404 => return Followed::Lost,
            Ok(reply) => reply,
            Err(_) if shared.core().is_quarantined(shard) => return Followed::Quarantined,
            Err(_) => {
                std::thread::sleep(FOLLOW_RETRY);
                continue;
            }
        };
        // A reply failing its CRC frame (a lying shard) or a transient 5xx
        // carries no record: ask again.
        let record = shared
            .verify_reply(reply)
            .ok()
            .and_then(|reply| reply.into_result().ok())
            .and_then(|reply| json::parse(&reply.body).ok());
        let Some(record) = record else {
            std::thread::sleep(FOLLOW_RETRY);
            continue;
        };
        if let Some(outcome) = settled(&record) {
            return Followed::Settled(outcome);
        }
        let _ = client.stream(&format!("{status}/events"), &mut |_| {
            let expired = until.is_some_and(|until| Instant::now() >= until);
            if expired || closed() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
}

/// A shard job record's outcome once it has settled; `None` while it is
/// queued or running.
fn settled(record: &Json) -> Option<Result<Json, String>> {
    Some(match record.get("state").and_then(Json::as_str)? {
        "done" => record
            .get("result")
            .cloned()
            .ok_or_else(|| "shard reported done without a result".to_owned()),
        "failed" => Err(record
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("shard job failed")
            .to_owned()),
        "cancelled" => Err("cancelled on shard".to_owned()),
        _ => return None,
    })
}

/// Lands what [`follow`] saw in the core. A shard that lost the job, or
/// was quarantined with it (its journal still holds the job, but nothing
/// replays it until an operator rolls the shard back in), hands the cell
/// back; so does a slot letting go at shutdown.
fn land(shared: &FleetShared, shard: usize, item: WorkItem, followed: Followed) {
    let publish = shared.update(|core| match followed {
        Followed::Settled(outcome) => core.settled(shard, item, outcome),
        Followed::Lost | Followed::Quarantined | Followed::TimedOut => {
            core.lost(shard, item);
            None
        }
    });
    shared.publish(publish);
}

/// The supervisor: a health sweep every [`SUPERVISE_EVERY`] over the
/// shards in rotation. A shard that exhausts its crash-loop budget is
/// quarantined in the core; the slots following its cells hand them back.
fn supervisor_loop(shared: &FleetShared) {
    loop {
        let spent = shared
            .shards
            .check_and_restart(|i| !shared.core().in_rotation(i));
        for shard in spent {
            shared.update(|core| core.set_quarantined(shard, true));
        }
        let (core, _) = shared
            .changed
            .wait_timeout_while(shared.core(), SUPERVISE_EVERY, |core| !core.is_closed())
            .expect("fleet core lock poisoned");
        if core.is_closed() {
            return;
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &FleetShared) {
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
            if shared.core().job(id).is_some() {
                let _ = stream_fleet_events(shared, id, &mut writer);
            } else {
                let _ = Response::error(404, ErrorCode::NotFound, "no such job")
                    .write_to(&mut writer, true);
            }
            return;
        }
        let response = route(shared, &request);
        let close = !request.keep_alive() || shared.core().is_closed();
        if response.write_to(&mut writer, close).is_err() || close {
            return;
        }
    }
}

fn route(shared: &FleetShared, request: &Request) -> Response {
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

fn job_route(shared: &FleetShared, method: &str, rest: &str) -> Response {
    let (id_text, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, ErrorCode::NotFound, "job IDs are integers");
    };
    match (method, action) {
        ("GET", None) => {
            let doc = shared.core().job(id).map(FleetJob::to_json);
            match doc {
                Some(doc) => Response::json(200, &doc),
                None => Response::error(404, ErrorCode::NotFound, "no such job"),
            }
        }
        ("POST", Some("cancel")) => {
            let cancelled = shared.update(|core| core.cancel(id));
            match cancelled {
                Ok(publish) => {
                    shared.publish([publish]);
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
                Err(_) => Response::error(404, ErrorCode::NotFound, "no such job"),
            }
        }
        (_, None) => Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed"),
        _ => Response::error(404, ErrorCode::NotFound, "no such endpoint"),
    }
}

/// Admission: parse → classify → admit every cell or none. A job larger
/// than its class queue answers `400 invalid_spec`; quota refusals answer
/// `429 quota_exceeded`, a full class queue `503 queue_full` — both with
/// the class's `Retry-After`.
fn submit(shared: &FleetShared, request: &Request) -> Response {
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
    let client = request.header("x-baryon-client").unwrap_or("anon").trim();
    let cells = spec.runs();
    let (status, code, message) = match shared.update(|core| core.admit(spec, client, class)) {
        Ok(id) => {
            return Response::json(
                202,
                &Json::obj([
                    ("id", Json::from(id)),
                    ("state", Json::from("queued")),
                    ("class", Json::from(class.as_str())),
                    ("cells", Json::from(cells as u64)),
                ]),
            )
        }
        Err(Refusal::TooLarge { cells, cap }) => {
            return Response::error(
                400,
                ErrorCode::InvalidSpec,
                &format!(
                    "invalid job spec: {cells} cells exceed the {} queue's capacity of {cap}",
                    class.as_str()
                ),
            )
        }
        Err(Refusal::Quota { max }) => (
            429,
            ErrorCode::QuotaExceeded,
            format!("client {client:?} already has {max} jobs in flight"),
        ),
        Err(Refusal::Full { cells, room }) => (
            503,
            ErrorCode::QueueFull,
            format!(
                "{} queue full ({room} free for {cells} cells), retry later",
                class.as_str()
            ),
        ),
        Err(Refusal::Closed) => (
            503,
            ErrorCode::ShuttingDown,
            "fleet is shutting down".to_owned(),
        ),
    };
    Response::error(status, code, &message)
        .header("Retry-After", &class.retry_after_secs().to_string())
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
fn admin_stage(shared: &FleetShared, request: &Request) -> Response {
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
fn admin_commit(shared: &FleetShared) -> Response {
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
    // From here until the roll settles, finished cells are staged, not
    // gathered: they may have been computed under a generation that is
    // about to be rolled back.
    shared.update(FleetCore::begin_roll);
    let rolled = roll_fleet(shared, new_path, old_path);
    let publish = shared.update(|core| core.end_roll(rolled.is_ok()));
    shared.publish(publish);
    match rolled {
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
                &format!("commit of generation {generation} rolled back: {reason}"),
            )
        }
    }
}

/// `POST /v1/admin/config/rollback` — the same rolling mechanism, back
/// onto the previous slot.
fn admin_rollback(shared: &FleetShared) -> Response {
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
    shared: &FleetShared,
    new_path: Option<PathBuf>,
    old_path: Option<PathBuf>,
) -> Result<(), String> {
    let failed = || shared.core().counters().failed;
    let failed_before = failed();
    let undo = |upto: usize| {
        for j in (0..=upto).rev() {
            if let Err(e) = roll_shard(shared, j, old_path.clone()) {
                // Best effort: unpause and let the supervisor respawn it.
                eprintln!("baryon-fleet: rollback of shard {j} failed: {e}");
                shared.update(|core| core.unpause(j));
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
    let failed_after = failed();
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
/// policy (which ends a quarantine) → health probe green → canary run.
/// Unpauses on success; leaves the shard paused on failure so no work
/// lands on it until the caller's rollback has restored the old policy.
fn roll_shard(
    shared: &FleetShared,
    index: usize,
    policy_path: Option<PathBuf>,
) -> Result<(), String> {
    shared.update(|core| core.pause(index));
    let outcome = drain_shard(shared, index)
        .and_then(|()| {
            shared
                .shards
                .restart_with_policy(index, policy_path)
                .map_err(|e| format!("respawn failed: {e}"))
        })
        .map(|()| shared.update(|core| core.set_quarantined(index, false)))
        .and_then(|()| probe_green(shared, index))
        .and_then(|()| canary(shared, index));
    if outcome.is_ok() {
        shared.update(|core| core.unpause(index));
    }
    outcome
}

/// How long a rolling restart waits for a paused shard's cells to land.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Waits until the shard's slots hold no cells (they land them as they
/// finish and pull nothing while the shard is paused).
fn drain_shard(shared: &FleetShared, index: usize) -> Result<(), String> {
    let (core, _) = shared
        .changed
        .wait_timeout_while(shared.core(), DRAIN_TIMEOUT, |core| {
            core.in_flight(index) > 0
        })
        .expect("fleet core lock poisoned");
    if core.in_flight(index) > 0 {
        return Err("drain timed out with cells still in flight".to_owned());
    }
    Ok(())
}

/// How long a restarted shard has to answer 3 green health probes.
const PROBE_BUDGET: Duration = Duration::from_secs(10);

/// Requires 3 consecutive green health probes within the probe budget.
fn probe_green(shared: &FleetShared, index: usize) -> Result<(), String> {
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

fn canary(shared: &FleetShared, index: usize) -> Result<(), String> {
    let id = post_run(shared, index, CANARY_SPEC)
        .map_err(|e| format!("canary submit rejected: {e}"))?
        .ok_or_else(|| "canary submit failed: shard unavailable".to_owned())?;
    match follow(shared, index, id, Some(Instant::now() + CANARY_TIMEOUT)) {
        Followed::Settled(Ok(_)) => Ok(()),
        Followed::Settled(Err(e)) => Err(format!("canary failed under the new config: {e}")),
        Followed::Lost => Err("the shard lost the canary job".to_owned()),
        Followed::Quarantined | Followed::TimedOut => Err("canary never settled".to_owned()),
    }
}

/// `GET /v1/metrics` — one registry for the whole fleet: coordinator
/// counters under `fleet.*`, plus every reachable shard's full-fidelity
/// wire registry absorbed under `shard<i>.`. The merge starts from a
/// fresh registry each scrape, so a restarted shard's counters replace
/// (not double-count) its previous incarnation's.
fn metrics_response(shared: &FleetShared, _query: &str) -> Response {
    let mut reg = Registry::new();
    let (m, (interactive, batch), quarantined) = {
        let core = shared.core();
        (
            core.counters(),
            core.queue_depths(),
            core.quarantined_count(),
        )
    };
    reg.set_counter("fleet.jobs.submitted", m.submitted);
    reg.set_counter("fleet.jobs.rejected_quota", m.rejected_quota);
    reg.set_counter("fleet.jobs.rejected_queue", m.rejected_queue);
    reg.set_counter("fleet.jobs.done", m.done);
    reg.set_counter("fleet.jobs.failed", m.failed);
    reg.set_counter("fleet.jobs.cancelled", m.cancelled);
    reg.set_counter("fleet.dispatch.requeued", m.requeued);
    reg.set_counter("fleet.shards.total", shared.shards.len() as u64);
    reg.set_counter("fleet.shards.restarts", shared.shards.restarts());
    reg.set_gauge("fleet.shards.quarantined", quarantined as f64);
    reg.set_counter("fleet.cells.failover", m.failover);
    reg.set_counter("fleet.shard.reply_errors", m.reply_errors);
    reg.set_counter("fleet.config.quarantined_results", m.quarantined_results);
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

fn shutdown(shared: &FleetShared) -> Response {
    let draining = shared.update(FleetCore::close);
    // Wake the accept loop so it sees the close.
    let _ = TcpStream::connect(shared.addr);
    Response::json(
        200,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("draining", Json::from(draining as u64)),
        ]),
    )
}

/// Streams a fleet job's events. A grid synthesizes `progress` from the
/// coordinator's cell bookkeeping; a posted single run proxies the
/// shard it was posted to ([`FleetJob::stream_target`]) with the
/// shard-local ID rewritten to the fleet ID (and a monotonicity filter so
/// a shard restart's replayed early events never reach the client out of
/// order).
fn stream_fleet_events(shared: &FleetShared, id: u64, writer: &mut TcpStream) -> io::Result<()> {
    let mut stream = ChunkedWriter::begin(&mut *writer, 200, &[])?;
    let mut cursor = EventCursor::new(id);
    let mut last_ops = 0;
    // The core settles a job before its settle publish, so a settle
    // landing just before a wait still wakes it.
    let ended = || {
        shared
            .core()
            .job(id)
            .is_none_or(|job| job.state.is_settled())
    };
    loop {
        let Some((state, target)) = shared
            .core()
            .job(id)
            .map(|job| (job.state, job.stream_target()))
        else {
            return end_stream(stream, id, "evicted");
        };
        if state.is_settled() {
            return end_stream(stream, id, state.as_str());
        }
        // A posted single run proxies the shard's stream directly — live
        // simulator progress.
        if let Some((shard, remote)) = target {
            proxy_single_stream(shared, id, shard, remote, &mut stream, &mut last_ops)?;
            // The shard's stream ended (job settled there, or the shard
            // died mid-run). The slot following the cell lands the result
            // and its settle wakes this wait; otherwise the loop re-opens
            // the restarted shard's resumed job.
            cursor.wait(&shared.progress, &mut stream, ended)?;
            continue;
        }
        // Queued singles and grids watch the coordinator's own board.
        cursor.send_progress(&shared.progress, &mut stream)?;
        cursor.wait(&shared.progress, &mut stream, ended)?;
    }
}

/// Follows one shard-local event stream, forwarding `progress` and
/// `alive` events with the ID rewritten to the fleet ID. The shard's own
/// `end` event is swallowed — the fleet-level end comes from the board
/// once the slot following the cell lands the result. Returns when the shard stream closes
/// or errors (the caller re-checks the board and reconnects).
fn proxy_single_stream(
    shared: &FleetShared,
    fleet_id: u64,
    shard: usize,
    remote: u64,
    stream: &mut ChunkedWriter<&mut TcpStream>,
    last_ops: &mut u64,
) -> io::Result<()> {
    let mut write_error: Option<io::Error> = None;
    // Shard-side errors (404 from a journal-less restart, connection drop
    // mid-restart) are not fatal to the fleet stream — the caller loops
    // and reconnects.
    let _ = Client::new(shared.shards.addr(shard))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(30))
        .stream(&format!("/v1/jobs/{remote}/events"), &mut |line| {
            let Ok(mut doc) = json::parse(line) else {
                return ControlFlow::Continue(());
            };
            match doc.get("event").and_then(Json::as_str) {
                Some("progress") => {
                    // After a shard restart the resumed run replays from
                    // its checkpoint; drop anything at or behind what the
                    // client already saw so `ops` stays strictly monotonic.
                    let ops = doc.get("ops").and_then(Json::as_u64).unwrap_or(0);
                    if ops <= *last_ops {
                        return ControlFlow::Continue(());
                    }
                    *last_ops = ops;
                }
                Some("alive") => {}
                // `end` (and anything unknown) is not forwarded.
                _ => return ControlFlow::Continue(()),
            }
            set_field(&mut doc, "id", Json::from(fleet_id));
            match send_event(stream, &doc) {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => {
                    write_error = Some(e);
                    ControlFlow::Break(())
                }
            }
        });
    // A write error means the streaming client hung up.
    write_error.map_or(Ok(()), Err)
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
    use baryon_bench::spec::RunSpec;
    use baryon_serve::{ServeConfig, Server};

    /// An in-process serve shard plus coordinator state whose shard 0
    /// points at it (the shard process is a shell that announces the
    /// server's address and sleeps).
    struct FollowFixture {
        shared: FleetShared,
        serving: Option<std::thread::JoinHandle<io::Result<()>>>,
        dir: PathBuf,
    }

    impl FollowFixture {
        fn new(tag: &str) -> FollowFixture {
            let server = Server::bind(ServeConfig {
                port: 0,
                workers: 1,
                ..ServeConfig::default()
            })
            .expect("bind serve");
            let addr = server.local_addr();
            let serving = Some(std::thread::spawn(move || server.run()));
            let dir =
                std::env::temp_dir().join(format!("baryon-follow-{tag}-{}", std::process::id()));
            let launcher = ShardLauncher {
                program: PathBuf::from("/bin/sh"),
                prefix_args: vec!["-c".into(), format!("echo ADDR {addr}; exec sleep 600")],
                workers: 1,
                queue_depth: 4,
                policy_path: None,
                extra_env: Vec::new(),
            };
            let shards = ShardSet::spawn(launcher, &dir, 1).expect("spawn the stand-in shard");
            let cfg = FleetConfig::default();
            let shared = FleetShared::new(&cfg, shards, addr, SlotMachine::new(), dir.clone());
            FollowFixture {
                shared,
                serving,
                dir,
            }
        }

        /// POSTs `spec` to the shard and returns its shard-local ID.
        fn submit(&self, spec: &RunSpec) -> u64 {
            let reply = Client::new(self.shared.shards.addr(0))
                .request("POST", "/v1/jobs", Some(&spec.to_json().render()))
                .expect("submit")
                .into_result()
                .expect("202");
            json::parse(&reply.body)
                .ok()
                .and_then(|doc| doc.get("id").and_then(Json::as_u64))
                .expect("id in 202 body")
        }
    }

    impl Drop for FollowFixture {
        fn drop(&mut self) {
            let _ = Client::new(self.shared.shards.addr(0)).request("POST", "/v1/shutdown", None);
            if let Some(serving) = self.serving.take() {
                let _ = serving.join();
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn small_run() -> RunSpec {
        RunSpec {
            insts: 20_000,
            warmup: 2_000,
            scale: 2048,
            seed: 5,
            ..RunSpec::default()
        }
    }

    #[test]
    fn follow_settles_with_the_in_process_result() {
        let fixture = FollowFixture::new("settled");
        let spec = small_run();
        let remote = fixture.submit(&spec);
        let Followed::Settled(Ok(result)) = follow(&fixture.shared, 0, remote, None) else {
            panic!("the run did not settle with a result");
        };
        let direct = spec.execute().expect("spec runs").to_json();
        assert_eq!(result.render(), direct.render());
    }

    #[test]
    fn follow_reports_an_unknown_job_lost() {
        let fixture = FollowFixture::new("lost");
        assert_eq!(follow(&fixture.shared, 0, 4242, None), Followed::Lost);
    }

    #[test]
    fn follow_times_out_at_until_while_the_job_streams() {
        let fixture = FollowFixture::new("timeout");
        let remote = fixture.submit(&RunSpec {
            insts: 1_000_000,
            ..small_run()
        });
        let started = Instant::now();
        let until = started + Duration::from_millis(300);
        assert_eq!(
            follow(&fixture.shared, 0, remote, Some(until)),
            Followed::TimedOut
        );
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(2), "overran until: {waited:?}");
    }

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
