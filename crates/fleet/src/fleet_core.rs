//! The fleet core: every dispatch decision of the coordinator, as plain
//! data.
//!
//! [`FleetCore`] holds the job board, the two class queues, the
//! per-client quotas, the fleet counters, each shard's rotation flags and
//! in-flight count, and the rollout flag. It does no I/O, reads no clock
//! and starts no thread. The coordinator ([`crate::coordinator`]) keeps it
//! under one `Mutex` with one `Condvar`, calls one method per event, and
//! does what the return value says; `tests/fleet_core_props.rs` drives it
//! through arbitrary interleavings against a fake shard.
//!
//! Every fleet job is a list of cells, one [`RunSpec`] each, in
//! [`JobSpec::cells`] order: a single run is a job with one cell, a grid
//! has one cell per row-major grid point. A cell waits `Pending` in its
//! class queue, is `Dispatched` once a shard's slot pulls it
//! ([`FleetCore::next_cell`]), and lands `Done`, or `Staged` while a
//! rollout is in flight. When every cell is done the job is gathered by
//! [`JobSpec::gather`] into the document a single-process run produces.
//!
//! Fairness under overload comes from two mechanisms:
//!
//! * **Per-client quotas** — each client (the `x-baryon-client` header,
//!   `anon` by default) may have at most K unsettled jobs; job K+1 is
//!   refused ([`Refusal::Quota`], `429 quota_exceeded`).
//! * **Two service classes** — `interactive` (single runs by default) and
//!   `batch` (grids), overridable with `x-baryon-class`. Slots always pull
//!   interactive cells first, and each class has its own bounded queue, so
//!   a full batch backlog never delays or refuses interactive work.
//!
//! Each job carries its event streams' progress snapshot: a grid's moves
//! as its cells land. Every settle — done, failed, cancelled, and a
//! rollout's staged results either way — goes through one path, which
//! counts the end, releases the quota, drops the job's queued cells, cell
//! documents and progress snapshot, and keeps at most [`RETAINED_SETTLED`]
//! settled jobs.

use baryon_bench::spec::{JobSpec, RunSpec};
use baryon_serve::progress::JobProgress;
use baryon_serve::serve_core::{CancelOutcome, JobState};
use baryon_sim::json::{self, Json};
use std::collections::{HashMap, VecDeque};

/// How many settled jobs the board keeps; the oldest beyond it are
/// evicted as new ones settle (serve's `finished_cap` default).
pub const RETAINED_SETTLED: usize = 256;

/// The two service classes of the dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Latency-sensitive: dispatched before any batch work.
    Interactive,
    /// Throughput work (grid sweeps); yields to interactive.
    Batch,
}

impl Class {
    /// The wire name (`interactive` / `batch`).
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }

    /// Parses the `x-baryon-class` header value.
    pub fn parse(s: &str) -> Option<Class> {
        match s {
            "interactive" => Some(Class::Interactive),
            "batch" => Some(Class::Batch),
            _ => None,
        }
    }

    /// The `Retry-After` seconds a refused submission of this class is
    /// told to wait: interactive queues drain fast, batch backlogs are
    /// long-lived by design.
    pub fn retry_after_secs(self) -> u64 {
        match self {
            Class::Interactive => 1,
            Class::Batch => 5,
        }
    }

    /// The class's queue index; interactive pops first.
    fn index(self) -> usize {
        match self {
            Class::Interactive => 0,
            Class::Batch => 1,
        }
    }
}

/// One unit of dispatch: cell `cell` of fleet job `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// The fleet job ID.
    pub job: u64,
    /// The cell's index in [`JobSpec::cells`] order.
    pub cell: usize,
}

/// A cell a slot pulled: what to POST to its shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Work {
    /// Which cell it is; every later call about it names this item.
    pub item: WorkItem,
    /// The run to execute.
    pub spec: RunSpec,
}

/// Where one cell stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Waiting in its class queue.
    Pending,
    /// A slot of `shard` holds it: POSTing it while `remote` is `None`,
    /// then following shard-local job `remote`.
    Dispatched {
        /// The shard executing it.
        shard: usize,
        /// The shard-local job ID, once the shard accepted the POST.
        remote: Option<u64>,
    },
    /// Finished while a rollout was in flight: its document is held, not
    /// gathered, until [`FleetCore::end_roll`] accepts it (→ `Done`) or
    /// discards it and requeues the cell (→ `Pending`).
    Staged,
    /// Finished with a result document.
    Done,
    /// Failed; its error failed the job.
    Failed,
}

/// One cell of a fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The run a shard executes.
    pub spec: RunSpec,
    /// Its dispatch state.
    pub state: CellState,
    /// Its result document while `Staged` or `Done`, until the job is
    /// gathered.
    doc: Option<Json>,
}

/// One fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Fleet-wide job ID (independent of any shard-local ID).
    pub id: u64,
    /// The submitted spec, echoed back in status documents.
    pub spec: JobSpec,
    /// The quota identity that submitted it.
    pub client: String,
    /// Its service class.
    pub class: Class,
    /// Lifecycle state, using the serve layer's wire names.
    pub state: JobState,
    /// The gathered result document once `Done`, kept rendered: a
    /// retained job holds its JSON text, not a tree four times that size.
    pub result: Option<String>,
    /// The failure reason once `Failed`.
    pub error: Option<String>,
    /// The job's cells, in [`JobSpec::cells`] order.
    pub cells: Vec<Cell>,
    /// The latest progress snapshot of an open grid, once a cell landed;
    /// `None` for singles and once the job settles.
    pub progress: Option<JobProgress>,
}

impl FleetJob {
    /// The status document (`GET /v1/jobs/<id>` at the coordinator).
    /// Mirrors the serve layer's job document, plus fleet-only fields
    /// (`class`, `client`, and a grid's cell progress).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_owned(), Json::from(self.id)),
            ("state".to_owned(), Json::from(self.state.as_str())),
            ("class".to_owned(), Json::from(self.class.as_str())),
            ("client".to_owned(), Json::from(self.client.as_str())),
            ("spec".to_owned(), self.spec.to_json()),
        ];
        if let JobSpec::Grid(_) = self.spec {
            pairs.push(("cells_total".to_owned(), Json::from(self.cells_total())));
            pairs.push(("cells_done".to_owned(), Json::from(self.cells_done())));
        }
        if let Some(result) = &self.result {
            let doc = json::parse(result).expect("a stored result is rendered JSON");
            pairs.push(("result".to_owned(), doc));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_owned(), Json::from(error.as_str())));
        }
        Json::Obj(pairs)
    }

    /// Count of cells done.
    pub fn cells_done(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.state == CellState::Done)
            .count() as u64
    }

    /// Total cells (1 for a single run).
    pub fn cells_total(&self) -> u64 {
        self.cells.len() as u64
    }

    /// The shard-local event stream a fleet event stream proxies, as
    /// `(shard, remote)`: a posted single run's, on the shard running it.
    /// `None` for grids and unposted runs, whose streams send the job's
    /// own progress snapshot.
    pub fn stream_target(&self) -> Option<(usize, u64)> {
        match (&self.spec, &self.cells[..]) {
            (
                JobSpec::Run(_),
                [Cell {
                    state:
                        CellState::Dispatched {
                            shard,
                            remote: Some(remote),
                        },
                    ..
                }],
            ) => Some((*shard, *remote)),
            _ => None,
        }
    }
}

/// The fleet counters, exported under `fleet.*` by `GET /v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Jobs admitted (`fleet.jobs.submitted`).
    pub submitted: u64,
    /// Submissions refused over quota (`fleet.jobs.rejected_quota`).
    pub rejected_quota: u64,
    /// Submissions refused by a full class queue
    /// (`fleet.jobs.rejected_queue`).
    pub rejected_queue: u64,
    /// Jobs settled done (`fleet.jobs.done`).
    pub done: u64,
    /// Jobs settled failed (`fleet.jobs.failed`).
    pub failed: u64,
    /// Jobs cancelled while queued (`fleet.jobs.cancelled`).
    pub cancelled: u64,
    /// Cells handed back to the queue by a shard that lost or refused
    /// them (`fleet.dispatch.requeued`).
    pub requeued: u64,
    /// Cells handed back off a quarantined shard (`fleet.cells.failover`).
    pub failover: u64,
    /// Shard replies that failed their CRC frame and were discarded
    /// (`fleet.shard.reply_errors`).
    pub reply_errors: u64,
    /// Results computed under a config generation whose roll failed,
    /// withheld and re-dispatched (`fleet.config.quarantined_results`).
    pub quarantined_results: u64,
}

/// Why [`FleetCore::admit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The fleet is shutting down.
    Closed,
    /// The job has more cells than its class queue holds: it can never be
    /// admitted.
    TooLarge {
        /// The job's cells.
        cells: usize,
        /// The class queue's capacity.
        cap: usize,
    },
    /// The client already has `max` unsettled jobs.
    Quota {
        /// The per-client cap.
        max: usize,
    },
    /// The class queue has no room for all of the job's cells.
    Full {
        /// The job's cells.
        cells: usize,
        /// The free places in the class queue.
        room: usize,
    },
}

/// How a job ends.
enum Ending {
    Done(Json),
    Failed(String),
    Cancelled,
}

/// One shard as dispatch sees it.
#[derive(Debug, Clone, Copy, Default)]
struct Rotation {
    /// Held out by the rollout engine (or a test) while it drains.
    paused: bool,
    /// Its crash-loop budget is spent; only a rolling restart clears it.
    quarantined: bool,
    /// Cells its slots hold.
    in_flight: usize,
}

/// The coordinator's dispatch state. See the module docs.
#[derive(Debug)]
pub struct FleetCore {
    jobs: HashMap<u64, FleetJob>,
    next_id: u64,
    /// Settled job IDs, oldest settle first.
    settled: VecDeque<u64>,
    /// Pending cells by [`Class::index`].
    queues: [VecDeque<WorkItem>; 2],
    queue_cap: usize,
    /// Unsettled jobs per client; a client at zero has no entry.
    quotas: HashMap<String, usize>,
    max_in_flight: usize,
    shards: Vec<Rotation>,
    /// A rollout is in flight: finished cells stage instead of landing.
    rolling: bool,
    closed: bool,
    counters: Counters,
}

impl FleetCore {
    /// An empty core over `shards` shards, each class queue holding up to
    /// `queue_cap` cells and each client up to `max_in_flight` unsettled
    /// jobs. Job IDs start at 1.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(shards: usize, queue_cap: usize, max_in_flight: usize) -> FleetCore {
        assert!(shards > 0, "a fleet needs at least one shard");
        assert!(queue_cap > 0, "a queue must admit at least one cell");
        assert!(max_in_flight > 0, "a quota must admit at least one job");
        FleetCore {
            jobs: HashMap::new(),
            next_id: 1,
            settled: VecDeque::new(),
            queues: [VecDeque::new(), VecDeque::new()],
            queue_cap,
            quotas: HashMap::new(),
            max_in_flight,
            shards: vec![Rotation::default(); shards],
            rolling: false,
            closed: false,
            counters: Counters::default(),
        }
    }

    /// Admits a job and queues all of its cells, or refuses it whole: a
    /// shut-down fleet, a job larger than its class queue, a client over
    /// quota, and a class queue without room for every cell, in that
    /// order.
    ///
    /// # Errors
    ///
    /// The [`Refusal`]; quota and queue refusals are counted.
    pub fn admit(&mut self, spec: JobSpec, client: &str, class: Class) -> Result<u64, Refusal> {
        if self.closed {
            return Err(Refusal::Closed);
        }
        let runs = spec.cells();
        if runs.len() > self.queue_cap {
            return Err(Refusal::TooLarge {
                cells: runs.len(),
                cap: self.queue_cap,
            });
        }
        if self.client_in_flight(client) >= self.max_in_flight {
            self.counters.rejected_quota += 1;
            return Err(Refusal::Quota {
                max: self.max_in_flight,
            });
        }
        let queue = &mut self.queues[class.index()];
        let room = self.queue_cap.saturating_sub(queue.len());
        if runs.len() > room {
            self.counters.rejected_queue += 1;
            return Err(Refusal::Full {
                cells: runs.len(),
                room,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        queue.extend((0..runs.len()).map(|cell| WorkItem { job: id, cell }));
        let cells = runs
            .into_iter()
            .map(|spec| Cell {
                spec,
                state: CellState::Pending,
                doc: None,
            })
            .collect();
        self.jobs.insert(
            id,
            FleetJob {
                id,
                spec,
                client: client.to_owned(),
                class,
                state: JobState::Queued,
                result: None,
                error: None,
                cells,
                progress: None,
            },
        );
        *self.quotas.entry(client.to_owned()).or_insert(0) += 1;
        self.counters.submitted += 1;
        Ok(id)
    }

    /// Hands the next cell, interactive first, to a slot of `shard`;
    /// `None` while the shard is out of rotation, the queues are empty,
    /// or the fleet is closed.
    ///
    /// # Panics
    ///
    /// Panics if a queued cell's job is not open — the queues hold
    /// exactly the pending cells of unsettled jobs.
    pub fn next_cell(&mut self, shard: usize) -> Option<Work> {
        if self.closed || !self.in_rotation(shard) {
            return None;
        }
        let [interactive, batch] = &mut self.queues;
        let item = interactive.pop_front().or_else(|| batch.pop_front())?;
        let job = self
            .jobs
            .get_mut(&item.job)
            .expect("a queued cell belongs to an open job");
        let cell = &mut job.cells[item.cell];
        cell.state = CellState::Dispatched {
            shard,
            remote: None,
        };
        job.state = JobState::Running;
        self.shards[shard].in_flight += 1;
        Some(Work {
            item,
            spec: cell.spec.clone(),
        })
    }

    /// `shard` accepted the cell's POST as shard-local job `remote`.
    pub fn posted(&mut self, shard: usize, item: WorkItem, remote: u64) {
        if let Some(cell) = self.cell_held_by(shard, item) {
            cell.state = CellState::Dispatched {
                shard,
                remote: Some(remote),
            };
        }
    }

    /// The shard-local job behind a cell of `shard` ended with `outcome`
    /// (or its POST was refused for good). The slot lets go of the cell.
    /// A result lands `Done`, or `Staged` during a rollout; an error fails
    /// the job. Nothing moves when the job had already settled.
    pub fn settled(&mut self, shard: usize, item: WorkItem, outcome: Result<Json, String>) {
        self.release(shard);
        let rolling = self.rolling;
        let Some(cell) = self.cell_held_by(shard, item) else {
            return;
        };
        match outcome {
            Ok(doc) => {
                cell.doc = Some(doc);
                if rolling {
                    cell.state = CellState::Staged;
                    return;
                }
                cell.state = CellState::Done;
                self.advance(item.job);
            }
            Err(e) => {
                cell.state = CellState::Failed;
                self.settle(item.job, Ending::Failed(e));
            }
        }
    }

    /// The cell's shard lost it (a `404`, a refused or garbled POST), or
    /// was quarantined under it: the slot lets go, and the cell goes back
    /// to the end of its class queue, past the cap — it was admitted once.
    pub fn lost(&mut self, shard: usize, item: WorkItem) {
        self.release(shard);
        let failover = self.shards[shard].quarantined;
        let Some(cell) = self.cell_held_by(shard, item) else {
            return;
        };
        cell.state = CellState::Pending;
        self.requeue(item);
        if failover {
            self.counters.failover += 1;
        } else {
            self.counters.requeued += 1;
        }
    }

    /// Cancels a job none of whose cells has been pulled yet.
    ///
    /// # Errors
    ///
    /// [`CancelOutcome::TooLate`] for a running or settled job,
    /// [`CancelOutcome::NotFound`] for an unknown or evicted one.
    pub fn cancel(&mut self, id: u64) -> Result<(), CancelOutcome> {
        match self.jobs.get(&id).map(|job| job.state) {
            None => Err(CancelOutcome::NotFound),
            Some(JobState::Queued) => {
                self.settle(id, Ending::Cancelled);
                Ok(())
            }
            Some(state) => Err(CancelOutcome::TooLate(state)),
        }
    }

    /// Holds a shard out of rotation: its slots pull nothing.
    pub fn pause(&mut self, shard: usize) {
        self.shards[shard].paused = true;
    }

    /// Returns a paused shard to rotation (unless it is quarantined).
    pub fn unpause(&mut self, shard: usize) {
        self.shards[shard].paused = false;
    }

    /// Sets whether a shard is quarantined: the supervisor quarantines a
    /// shard whose crash-loop budget is spent, and a rolling restart
    /// clears it.
    pub fn set_quarantined(&mut self, shard: usize, quarantined: bool) {
        self.shards[shard].quarantined = quarantined;
    }

    /// A rollout begins: cells finishing from now on are staged.
    pub fn begin_roll(&mut self) {
        self.rolling = true;
    }

    /// The rollout ended. `accept` (it committed) lands every staged cell;
    /// otherwise their results, computed under a generation that never
    /// committed, are discarded and the cells requeued, so each job's
    /// gather is computed wholly under the restored config.
    pub fn end_roll(&mut self, accept: bool) {
        self.rolling = false;
        let mut staged: Vec<u64> = self
            .jobs
            .values()
            .filter(|job| !job.state.is_settled())
            .filter(|job| job.cells.iter().any(|c| c.state == CellState::Staged))
            .map(|job| job.id)
            .collect();
        // Requeue in admission order, as the cells were first queued.
        staged.sort_unstable();
        for id in staged {
            let job = self.jobs.get_mut(&id).expect("an open job");
            let queue = &mut self.queues[job.class.index()];
            for (i, cell) in job.cells.iter_mut().enumerate() {
                if cell.state != CellState::Staged {
                    continue;
                }
                if accept {
                    cell.state = CellState::Done;
                } else {
                    cell.state = CellState::Pending;
                    cell.doc = None;
                    queue.push_back(WorkItem { job: id, cell: i });
                    self.counters.quarantined_results += 1;
                }
            }
            if accept {
                self.advance(id);
            }
        }
    }

    /// Counts a shard reply that failed its CRC frame.
    pub fn reply_error(&mut self) {
        self.counters.reply_errors += 1;
    }

    /// Shuts dispatch: admissions are refused and slots pull nothing.
    /// Returns how many cells were still queued.
    pub fn close(&mut self) -> usize {
        self.closed = true;
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether [`FleetCore::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// A job on the board: unsettled, or among the last
    /// [`RETAINED_SETTLED`] settled.
    pub fn job(&self, id: u64) -> Option<&FleetJob> {
        self.jobs.get(&id)
    }

    /// Every job on the board, in no particular order.
    pub fn jobs(&self) -> impl Iterator<Item = &FleetJob> {
        self.jobs.values()
    }

    /// The fleet counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Current `(interactive, batch)` queue depths.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.queues[0].len(), self.queues[1].len())
    }

    /// Whether the shard's slots may pull: neither paused nor quarantined.
    pub fn in_rotation(&self, shard: usize) -> bool {
        let rotation = self.shards[shard];
        !rotation.paused && !rotation.quarantined
    }

    /// Whether the shard is quarantined.
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.shards[shard].quarantined
    }

    /// How many shards are quarantined (the `fleet.shards.quarantined`
    /// gauge).
    pub fn quarantined_count(&self) -> u64 {
        self.shards.iter().filter(|s| s.quarantined).count() as u64
    }

    /// Cells the shard's slots hold.
    pub fn in_flight(&self, shard: usize) -> usize {
        self.shards[shard].in_flight
    }

    /// Unsettled jobs of `client`.
    pub fn client_in_flight(&self, client: &str) -> usize {
        self.quotas.get(client).copied().unwrap_or(0)
    }

    /// A slot of `shard` let go of its cell.
    fn release(&mut self, shard: usize) {
        let rotation = &mut self.shards[shard];
        rotation.in_flight = rotation.in_flight.saturating_sub(1);
    }

    /// The cell `item` while its job is open and a slot of `shard` holds
    /// it.
    fn cell_held_by(&mut self, shard: usize, item: WorkItem) -> Option<&mut Cell> {
        let job = self.jobs.get_mut(&item.job)?;
        if job.state.is_settled() {
            return None;
        }
        let cell = job.cells.get_mut(item.cell)?;
        matches!(cell.state, CellState::Dispatched { shard: s, .. } if s == shard).then_some(cell)
    }

    /// Puts an admitted, pending cell back on its class queue.
    fn requeue(&mut self, item: WorkItem) {
        let class = self.jobs[&item.job].class;
        self.queues[class.index()].push_back(item);
    }

    /// After a cell of open job `id` landed: gathers and settles the job
    /// once every cell is done; otherwise moves a grid's progress.
    fn advance(&mut self, id: u64) {
        let job = self.jobs.get_mut(&id).expect("advancing an open job");
        if job.cells.iter().all(|c| c.state == CellState::Done) {
            let docs = job.cells.iter_mut().map(|c| c.doc.take()).collect();
            let ending = match job.spec.gather(docs) {
                Ok(result) => Ending::Done(result),
                Err(e) => Ending::Failed(e),
            };
            return self.settle(id, ending);
        }
        if let JobSpec::Grid(_) = job.spec {
            let (done, total) = (job.cells_done(), job.cells_total());
            let progress = job.progress.get_or_insert_with(JobProgress::default);
            progress.phase = "measure";
            progress.cells_done = done;
            progress.cells_total = total;
            progress.ops = done;
            progress.seq += 1;
        }
    }

    /// The one settle path: sets the job's end, counts it, releases its
    /// client's quota, drops its queued cells, cell documents and progress
    /// snapshot, and evicts the oldest settled job beyond
    /// [`RETAINED_SETTLED`].
    fn settle(&mut self, id: u64, ending: Ending) {
        let job = self.jobs.get_mut(&id).expect("settling an open job");
        match ending {
            Ending::Done(result) => {
                job.state = JobState::Done;
                job.result = Some(result.render());
                self.counters.done += 1;
            }
            Ending::Failed(e) => {
                job.state = JobState::Failed;
                job.error = Some(e);
                self.counters.failed += 1;
            }
            Ending::Cancelled => {
                job.state = JobState::Cancelled;
                self.counters.cancelled += 1;
            }
        }
        for cell in &mut job.cells {
            cell.doc = None;
        }
        job.progress = None;
        let class = job.class;
        if let Some(held) = self.quotas.get_mut(&job.client) {
            *held -= 1;
            if *held == 0 {
                self.quotas.remove(&job.client);
            }
        }
        self.queues[class.index()].retain(|item| item.job != id);
        self.settled.push_back(id);
        if self.settled.len() > RETAINED_SETTLED {
            let old = self.settled.pop_front().expect("over the cap");
            self.jobs.remove(&old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_bench::spec::GridSpec;

    fn run() -> JobSpec {
        JobSpec::Run(RunSpec::default())
    }

    fn tiny_grid() -> GridSpec {
        GridSpec {
            workloads: vec!["ycsb-a".into(), "pr.twi".into()],
            controllers: vec!["simple".into()],
            base: RunSpec {
                insts: 1_000,
                warmup: 200,
                scale: 2048,
                ..RunSpec::default()
            },
        }
    }

    /// Pulls the next cell on shard 0 and lands `doc` for it.
    fn land(core: &mut FleetCore, doc: Json) -> WorkItem {
        let work = core.next_cell(0).expect("a queued cell");
        core.settled(0, work.item, Ok(doc));
        work.item
    }

    #[test]
    fn class_wire_round_trip() {
        for class in [Class::Interactive, Class::Batch] {
            assert_eq!(Class::parse(class.as_str()), Some(class));
        }
        assert_eq!(Class::parse("turbo"), None);
        assert!(Class::Interactive.retry_after_secs() < Class::Batch.retry_after_secs());
    }

    #[test]
    fn a_single_settles_once_and_releases_its_quota() {
        let mut core = FleetCore::new(1, 8, 2);
        let id = core
            .admit(run(), "alice", Class::Interactive)
            .expect("room");
        assert_eq!(core.job(id).map(|j| j.state), Some(JobState::Queued));
        assert_eq!(core.client_in_flight("alice"), 1);

        let work = core.next_cell(0).expect("queued");
        assert_eq!(work.spec, RunSpec::default());
        assert_eq!(core.job(id).map(|j| j.state), Some(JobState::Running));
        assert_eq!(core.in_flight(0), 1);
        core.posted(0, work.item, 7);
        assert_eq!(core.job(id).and_then(FleetJob::stream_target), Some((0, 7)));

        let doc = Json::obj([("ok", Json::Bool(true))]);
        core.settled(0, work.item, Ok(doc.clone()));
        let job = core.job(id).expect("retained");
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.result, Some(doc.render()));
        assert_eq!(job.progress, None, "a single publishes no progress");
        assert!(
            job.cells.iter().all(|c| c.doc.is_none()),
            "cell docs dropped"
        );
        assert_eq!(core.client_in_flight("alice"), 0);
        assert_eq!(core.in_flight(0), 0);
        assert_eq!(core.counters().done, 1);

        // A late delivery cannot reopen or re-count it.
        core.settled(0, work.item, Err("late".into()));
        assert_eq!(core.job(id).map(|j| j.state), Some(JobState::Done));
        assert_eq!(core.counters().failed, 0);
    }

    #[test]
    fn a_grid_gathers_in_row_major_order_and_fails_on_its_first_error() {
        let mut core = FleetCore::new(1, 8, 4);
        let id = core
            .admit(JobSpec::Grid(tiny_grid()), "bob", Class::Batch)
            .expect("room");
        let first = core.next_cell(0).expect("cell 0");
        let second = core.next_cell(0).expect("cell 1");
        // Cell 1 lands first; the grid's progress moves, it does not settle.
        core.settled(0, second.item, Ok(Json::from(1u64)));
        let job = core.job(id).expect("job");
        assert_eq!(job.state, JobState::Running);
        let progress = job.progress.clone().expect("a landed cell moves progress");
        assert_eq!(
            (
                progress.seq,
                progress.phase,
                progress.cells_done,
                progress.cells_total
            ),
            (1, "measure", 1, 2)
        );
        let doc = job.to_json().render();
        assert!(doc.contains("\"cells_total\":2"), "{doc}");
        assert!(doc.contains("\"cells_done\":1"), "{doc}");
        core.settled(0, first.item, Ok(Json::from(0u64)));
        let job = core.job(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.progress, None, "a settled job keeps no snapshot");
        assert_eq!(job.result.as_deref(), Some(r#"{"results":[0,1]}"#));

        // A failing cell fails the grid at once and drops its queued cells.
        let id = core
            .admit(JobSpec::Grid(tiny_grid()), "bob", Class::Batch)
            .expect("room");
        let work = core.next_cell(0).expect("cell 0");
        assert_eq!(core.queue_depths(), (0, 1));
        core.settled(0, work.item, Err("no such workload".into()));
        let job = core.job(id).expect("job");
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.error.as_deref(), Some("no such workload"));
        assert_eq!(core.queue_depths(), (0, 0), "its other cell left the queue");
        assert_eq!(core.client_in_flight("bob"), 0);
    }

    #[test]
    fn staged_cells_land_on_commit_and_requeue_on_rollback() {
        let mut core = FleetCore::new(1, 8, 4);
        let id = core
            .admit(JobSpec::Grid(tiny_grid()), "dana", Class::Batch)
            .expect("room");
        land(&mut core, Json::from(0u64));
        core.begin_roll();
        land(&mut core, Json::from(1u64));
        let job = core.job(id).expect("job");
        assert_eq!(
            job.state,
            JobState::Running,
            "a staged cell does not gather"
        );
        assert_eq!(job.progress.as_ref().map(|p| p.cells_done), Some(1));

        // The roll commits: the staged result lands and the grid gathers.
        core.end_roll(true);
        assert_eq!(core.counters().done, 1);
        let job = core.job(id).expect("job");
        assert_eq!(job.result.as_deref(), Some(r#"{"results":[0,1]}"#));

        // A rolled-back roll discards the staged result and requeues the cell.
        let id = core.admit(run(), "erin", Class::Interactive).expect("room");
        core.begin_roll();
        land(&mut core, Json::from(42u64));
        core.end_roll(false);
        assert_eq!(core.counters().quarantined_results, 1);
        assert_eq!(core.queue_depths(), (1, 0));
        let job = core.job(id).expect("job");
        assert!(!job.state.is_settled(), "{:?}", job.state);
        assert_eq!(job.cells[0].state, CellState::Pending);
        assert_eq!(core.client_in_flight("erin"), 1, "the quota stays held");
        land(&mut core, Json::from(7u64));
        assert_eq!(
            core.job(id).and_then(|j| j.result.clone()).as_deref(),
            Some("7")
        );
    }

    #[test]
    fn cancel_settles_only_queued_jobs() {
        let mut core = FleetCore::new(1, 8, 4);
        assert_eq!(core.cancel(99), Err(CancelOutcome::NotFound));
        let id = core.admit(run(), "c", Class::Interactive).expect("room");
        core.cancel(id).expect("queued");
        assert_eq!(core.job(id).map(|j| j.state), Some(JobState::Cancelled));
        assert_eq!(core.queue_depths(), (0, 0), "its cell left the queue");
        assert_eq!(core.client_in_flight("c"), 0);
        assert_eq!(core.counters().cancelled, 1);
        assert_eq!(
            core.cancel(id),
            Err(CancelOutcome::TooLate(JobState::Cancelled))
        );

        let running = core.admit(run(), "c", Class::Interactive).expect("room");
        core.next_cell(0).expect("queued");
        assert_eq!(
            core.cancel(running),
            Err(CancelOutcome::TooLate(JobState::Running))
        );
    }

    #[test]
    fn interactive_cells_pull_before_batch() {
        let mut core = FleetCore::new(1, 8, 8);
        let batch = core
            .admit(JobSpec::Grid(tiny_grid()), "b", Class::Batch)
            .expect("room");
        let single = core.admit(run(), "i", Class::Interactive).expect("room");
        let order: Vec<u64> = (0..3)
            .map(|_| core.next_cell(0).expect("cell").item.job)
            .collect();
        assert_eq!(order, [single, batch, batch]);
    }

    #[test]
    fn admission_is_whole_or_refused() {
        let mut core = FleetCore::new(1, 3, 1);
        let grid = || JobSpec::Grid(tiny_grid());
        core.admit(grid(), "a", Class::Batch)
            .expect("2 of 3 places");
        // One place left: a 2-cell grid is refused whole, leaving the
        // queue as it was.
        assert_eq!(
            core.admit(grid(), "b", Class::Batch),
            Err(Refusal::Full { cells: 2, room: 1 })
        );
        assert_eq!(core.queue_depths(), (0, 2));
        assert_eq!(core.client_in_flight("b"), 0);
        // A full batch queue never refuses interactive work.
        core.admit(run(), "b", Class::Interactive)
            .expect("own queue");
        // Over quota beats a full queue.
        assert_eq!(
            core.admit(grid(), "a", Class::Batch),
            Err(Refusal::Quota { max: 1 })
        );
        // A job larger than its queue can never fit.
        let wide = JobSpec::Grid(GridSpec {
            controllers: vec!["simple".into(), "baryon".into()],
            ..tiny_grid()
        });
        assert_eq!(
            core.admit(wide, "c", Class::Batch),
            Err(Refusal::TooLarge { cells: 4, cap: 3 })
        );
        let counters = core.counters();
        assert_eq!((counters.rejected_queue, counters.rejected_quota), (1, 1));
        assert_eq!(core.close(), 3);
        assert_eq!(
            core.admit(run(), "d", Class::Interactive),
            Err(Refusal::Closed)
        );
        assert_eq!(core.next_cell(0), None, "a closed core hands out nothing");
    }

    #[test]
    fn slots_of_a_shard_out_of_rotation_pull_nothing() {
        let mut core = FleetCore::new(2, 8, 8);
        core.admit(run(), "p", Class::Interactive).expect("room");
        core.pause(0);
        assert_eq!(core.next_cell(0), None);
        core.unpause(0);
        core.set_quarantined(0, true);
        assert_eq!(core.next_cell(0), None);
        assert_eq!(core.quarantined_count(), 1);
        let work = core.next_cell(1).expect("shard 1 is in rotation");
        // Handed back off a quarantined shard, it counts as a failover.
        core.set_quarantined(1, true);
        core.lost(1, work.item);
        assert_eq!(core.counters().failover, 1);
        assert_eq!(core.queue_depths(), (1, 0));
        core.set_quarantined(0, false);
        let work = core.next_cell(0).expect("back in rotation");
        core.lost(0, work.item);
        assert_eq!(core.counters().requeued, 1);
        assert_eq!((core.in_flight(0), core.in_flight(1)), (0, 0));
    }

    #[test]
    fn the_oldest_settled_jobs_are_evicted_past_the_retention_cap() {
        let mut core = FleetCore::new(1, 8, 1);
        // Interactive cells pull first, so this batch job stays queued.
        let open = core.admit(run(), "o", Class::Batch).expect("room");
        let mut ids = Vec::new();
        for _ in 0..=RETAINED_SETTLED {
            let id = core.admit(run(), "r", Class::Interactive).expect("room");
            land(&mut core, Json::Null);
            assert_eq!(core.job(id).map(|j| j.state), Some(JobState::Done));
            ids.push(id);
            // Only the settle past the cap evicts, and it evicts the oldest.
            assert_eq!(core.job(ids[0]).is_none(), ids.len() > RETAINED_SETTLED);
        }
        assert!(core.job(ids[0]).is_none(), "the oldest settled job is gone");
        assert!(core.job(ids[1]).is_some());
        assert_eq!(core.jobs().count(), RETAINED_SETTLED + 1);
        // An open job is never evicted, however many settle after it.
        assert!(core.job(open).is_some());
    }

    #[test]
    fn a_run_and_a_one_cell_grid_keep_their_wire_formats() {
        let cell = || Json::obj([("ipc", Json::from(3u64))]);
        let mut core = FleetCore::new(1, 8, 8);
        let grid = GridSpec {
            workloads: vec!["ycsb-a".into()],
            ..tiny_grid()
        };
        let run = core
            .admit(
                JobSpec::Run(grid.expand().remove(0)),
                "g",
                Class::Interactive,
            )
            .expect("room");
        land(&mut core, cell());
        let one = core
            .admit(JobSpec::Grid(grid), "g", Class::Batch)
            .expect("room");
        land(&mut core, cell());

        let run_doc = core.job(run).expect("run").to_json();
        assert!(run_doc.get("cells_total").is_none(), "{}", run_doc.render());
        assert!(run_doc.get("cells_done").is_none(), "{}", run_doc.render());
        assert_eq!(
            run_doc.get("result").expect("result").render(),
            r#"{"ipc":3}"#
        );

        let grid_doc = core.job(one).expect("grid").to_json();
        assert_eq!(grid_doc.get("cells_total").and_then(Json::as_u64), Some(1));
        assert_eq!(grid_doc.get("cells_done").and_then(Json::as_u64), Some(1));
        assert_eq!(
            grid_doc.get("result").expect("result").render(),
            r#"{"results":[{"ipc":3}]}"#
        );
    }
}
