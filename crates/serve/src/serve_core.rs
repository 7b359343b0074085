//! The serve core: a shard's job state as plain data.
//!
//! [`ServeCore`] holds the job records, the FIFO of queued IDs and its
//! capacity, the `closed` flag and the ID counter, the retained settled
//! jobs, the `serve.*` counters with the busy count and the latency
//! histogram, and each unsettled job's latest [`JobProgress`]. It does no
//! I/O, reads no clock and starts no thread. The server
//! ([`crate::server`]) keeps it under one `Mutex` with one `Condvar` that
//! every update notifies, calls one method per event, and journals the
//! record a settle returns; `tests/serve_core_props.rs` drives it through
//! arbitrary interleavings.
//!
//! States move strictly forward:
//!
//! ```text
//! queued ──▶ running ──▶ done | failed
//!    └─────▶ cancelled                  (only queued jobs can be cancelled)
//! ```
//!
//! Admission comes in two steps: [`ServeCore::reserve`] takes a queue place
//! and issues the ID before the `Submit` record is journaled, and
//! [`ServeCore::admit`] queues the job once it is durable, so a refused
//! submission journals nothing. Every settle — done, failed, timed out,
//! panicked, refused at recovery, or cancelled — goes through one path: it
//! counts the end, drops the job's progress snapshot, keeps at most
//! `finished_cap` settled jobs (the oldest settle goes first) and returns
//! the `Finish` or `Cancel` record the server journals.

use crate::journal::{JournalEvent, RecoveredState};
use crate::progress::JobProgress;
use baryon_bench::spec::{JobSpec, RunSpec};
use baryon_sim::histogram::Histogram;
use baryon_sim::json::{self, Json};
use baryon_sim::telemetry::Registry;
use std::collections::{BTreeMap, VecDeque};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the result document is available.
    Done,
    /// Finished with an error (bad spec caught late, a timeout, or a
    /// worker panic).
    Failed,
    /// Cancelled while still queued; it will never run.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once the job can no longer change state (done, failed, or
    /// cancelled) — event streams end on this.
    pub fn is_settled(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Monotonic ID (1-based, in submission order).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The submitted spec, for echoing back in status documents.
    pub spec: JobSpec,
    /// Result document once `Done`, kept rendered: a retained finished
    /// job holds its ~2 KB of JSON text, not a tree four times that size.
    pub result: Option<String>,
    /// Error message once `Failed`.
    pub error: Option<String>,
    /// Execution wall time in microseconds, once finished.
    pub wall_us: Option<u64>,
    /// The latest progress snapshot of a running job; `None` before its
    /// first publish and once it settles.
    pub progress: Option<JobProgress>,
}

impl JobRecord {
    /// The status document served by `GET /v1/jobs/<id>`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_owned(), Json::from(self.id)),
            ("state".to_owned(), Json::from(self.state.as_str())),
            ("runs".to_owned(), Json::from(self.spec.runs())),
            ("spec".to_owned(), self.spec.to_json()),
        ];
        if let Some(us) = self.wall_us {
            pairs.push(("wall_us".to_owned(), Json::from(us)));
        }
        if let Some(err) = &self.error {
            pairs.push(("error".to_owned(), Json::from(err.as_str())));
        }
        if let Some(result) = &self.result {
            let doc = json::parse(result).expect("a stored result is rendered JSON");
            pairs.push(("result".to_owned(), doc));
        }
        Json::Obj(pairs)
    }
}

/// Why a cancellation request cancelled nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job exists but already left the queue (running or finished).
    TooLate(JobState),
    /// No such job.
    NotFound,
}

/// Why [`ServeCore::reserve`] refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Every queue place is taken; retry later (`503 queue_full`).
    Full,
    /// The server is draining; never retry (`503 shutting_down`).
    Closed,
}

/// How a running job's execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// It produced this result document, rendered.
    Done(String),
    /// It failed with this error.
    Failed(String),
    /// It panicked; the message says where.
    Panicked(String),
    /// Its deadline passed; the message says which.
    TimedOut(String),
}

/// How a job settles.
enum Ending {
    Finished(Outcome, Option<u64>),
    Cancelled,
}

/// Serve-layer counters, exported uniformly through the unified
/// [`baryon_sim::telemetry::Registry`] so grid/report tooling can consume
/// them like any simulator component's counters.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// HTTP requests read (`serve.http.requests`).
    pub requests: u64,
    /// Jobs admitted (`serve.jobs.submitted`).
    pub submitted: u64,
    /// Submissions refused by a full queue (`serve.jobs.rejected`).
    pub rejected: u64,
    /// Jobs settled done (`serve.jobs.done`).
    pub done: u64,
    /// Jobs settled failed, timeouts and panics included
    /// (`serve.jobs.failed`).
    pub failed: u64,
    /// Jobs failed by their deadline (`serve.jobs.timed_out`).
    pub timed_out: u64,
    /// Jobs failed by a panic (`serve.jobs.panicked`).
    pub panicked: u64,
    /// Jobs cancelled while queued (`serve.jobs.cancelled`).
    pub cancelled: u64,
    /// Journaled jobs queued again at boot (`serve.jobs.recovered`).
    pub recovered: u64,
    /// Runs of the jobs settled done (`serve.runs.executed`).
    pub runs_executed: u64,
    /// Checkpoints quarantined on the fallback ladder
    /// (`serve.ckpt.quarantined`).
    pub ckpt_quarantined: u64,
    /// Jobs running now (`serve.workers.busy`).
    pub busy: usize,
    /// Wall time of every settled run, in microseconds.
    pub latency_us: Histogram,
}

impl Metrics {
    /// Records one job's wall time.
    pub fn record_latency(&mut self, us: u64) {
        self.latency_us.record(us);
    }

    /// Snapshots every counter and gauge into a telemetry [`Registry`]
    /// under the `serve.` namespace. Job latency is published both as a
    /// summary (`serve.job_latency_us`) and as the legacy flat counters
    /// (`serve.job_latency.count` / `.p50_us` / `.p95_us`). `evicted` is
    /// the retention-eviction count.
    pub fn to_registry(
        &self,
        queue_depth: usize,
        workers: usize,
        evicted: u64,
        generation: u64,
    ) -> Registry {
        let mut reg = Registry::new();
        reg.set_counter("serve.http.requests", self.requests);
        reg.set_counter("serve.policy.generation", generation);
        reg.set_counter("serve.jobs.submitted", self.submitted);
        reg.set_counter("serve.jobs.rejected", self.rejected);
        reg.set_counter("serve.jobs.evicted", evicted);
        reg.set_counter("serve.jobs.recovered", self.recovered);
        reg.set_counter("serve.jobs.done", self.done);
        reg.set_counter("serve.jobs.failed", self.failed);
        reg.set_counter("serve.jobs.timed_out", self.timed_out);
        reg.set_counter("serve.jobs.panicked", self.panicked);
        reg.set_counter("serve.jobs.cancelled", self.cancelled);
        reg.set_counter("serve.runs.executed", self.runs_executed);
        reg.set_counter("serve.ckpt.quarantined", self.ckpt_quarantined);
        reg.set_counter("serve.queue.depth", queue_depth as u64);
        reg.set_counter("serve.workers.total", workers as u64);
        reg.set_counter("serve.workers.busy", self.busy as u64);
        reg.set_gauge(
            "serve.workers.utilization",
            self.busy as f64 / workers.max(1) as f64,
        );
        let latency = &self.latency_us;
        reg.set_counter("serve.job_latency.count", latency.count());
        reg.set_counter("serve.job_latency.p50_us", latency.percentile(50.0));
        reg.set_counter("serve.job_latency.p95_us", latency.percentile(95.0));
        reg.set_gauge("serve.job_latency.mean_us", latency.mean());
        reg.observe_histogram("serve.job_latency_us", latency);
        reg
    }
}

/// A shard's job state. See the module docs.
#[derive(Debug)]
pub struct ServeCore {
    jobs: BTreeMap<u64, JobRecord>,
    /// Queued job IDs, in ID order.
    queue: VecDeque<u64>,
    queue_cap: usize,
    /// Queue places held by submissions whose `Submit` record is being
    /// journaled.
    reserved: usize,
    closed: bool,
    next_id: u64,
    /// Retained settled job IDs, oldest settle first.
    settled: VecDeque<u64>,
    finished_cap: usize,
    evicted: u64,
    metrics: Metrics,
}

impl ServeCore {
    /// An empty core whose queue holds `queue_cap` jobs and which retains
    /// at least one and at most `finished_cap` settled jobs. IDs start
    /// at 1.
    ///
    /// # Panics
    ///
    /// Panics if `queue_cap` is zero (every submission would be refused).
    pub fn new(queue_cap: usize, finished_cap: usize) -> ServeCore {
        assert!(queue_cap > 0, "queue capacity must be at least 1");
        ServeCore {
            jobs: BTreeMap::new(),
            queue: VecDeque::with_capacity(queue_cap),
            queue_cap,
            reserved: 0,
            closed: false,
            next_id: 1,
            settled: VecDeque::new(),
            finished_cap: finished_cap.max(1),
            evicted: 0,
            metrics: Metrics::default(),
        }
    }

    /// Takes a queue place for a new job and issues its ID, before its
    /// `Submit` record is journaled.
    ///
    /// # Errors
    ///
    /// [`Refusal::Closed`] after [`ServeCore::close`]; [`Refusal::Full`]
    /// (counted) when queued jobs and reservations fill the queue.
    pub fn reserve(&mut self) -> Result<u64, Refusal> {
        if self.closed {
            return Err(Refusal::Closed);
        }
        if self.queue.len() + self.reserved >= self.queue_cap {
            self.metrics.rejected += 1;
            return Err(Refusal::Full);
        }
        self.reserved += 1;
        self.next_id += 1;
        Ok(self.next_id - 1)
    }

    /// Queues job `id`, whose place [`ServeCore::reserve`] took, once its
    /// `Submit` record is durable. It keeps its place in ID order.
    ///
    /// # Panics
    ///
    /// Panics if no place is reserved.
    pub fn admit(&mut self, id: u64, spec: JobSpec) {
        self.reserved = self
            .reserved
            .checked_sub(1)
            .expect("admitting a reserved place");
        self.enqueue(queued(id, spec));
        self.metrics.submitted += 1;
    }

    /// Gives back a reserved place whose `Submit` record could not be
    /// journaled. Its ID is never reused.
    ///
    /// # Panics
    ///
    /// Panics if no place is reserved.
    pub fn unreserve(&mut self) {
        self.reserved = self
            .reserved
            .checked_sub(1)
            .expect("releasing a reserved place");
    }

    /// Hands the oldest queued job to a worker: it becomes `Running` and
    /// the worker busy. `None` when nothing is queued.
    pub fn next_job(&mut self) -> Option<(u64, JobSpec)> {
        let id = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&id).expect("a queued ID names a job");
        job.state = JobState::Running;
        self.metrics.busy += 1;
        Some((id, job.spec.clone()))
    }

    /// Applies `apply` to a running job's progress snapshot (zeroed on its
    /// first publish) and bumps its `seq`. A job that left `Running` — a
    /// timed-out job whose runner was abandoned — publishes nothing.
    pub fn publish(&mut self, id: u64, apply: impl FnOnce(&mut JobProgress)) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.state == JobState::Running {
            let progress = job.progress.get_or_insert_with(JobProgress::default);
            apply(progress);
            progress.seq += 1;
        }
    }

    /// A running job's execution ended with `outcome` after `wall_us`.
    /// Returns the `Finish` record to journal; `None` when the job was not
    /// running — e.g. its deadline already failed it and this is the
    /// abandoned runner's late result, which must never flip its state.
    pub fn finish(&mut self, id: u64, outcome: Outcome, wall_us: u64) -> Option<JournalEvent> {
        let running = self.jobs.get(&id)?.state == JobState::Running;
        running.then(|| self.settle(id, Ending::Finished(outcome, Some(wall_us))))
    }

    /// Cancels a queued job; returns the `Cancel` record to journal.
    ///
    /// # Errors
    ///
    /// [`CancelOutcome::TooLate`] for a running or settled job,
    /// [`CancelOutcome::NotFound`] for an unknown or evicted one.
    pub fn cancel(&mut self, id: u64) -> Result<JournalEvent, CancelOutcome> {
        match self.jobs.get(&id).map(|job| job.state) {
            None => Err(CancelOutcome::NotFound),
            Some(JobState::Queued) => Ok(self.settle(id, Ending::Cancelled)),
            Some(state) => Err(CancelOutcome::TooLate(state)),
        }
    }

    /// Re-installs a job the journal recovered, under its original ID;
    /// new IDs start above it. A job that never started, or was
    /// interrupted, is queued again (counted recovered) even past the
    /// queue's capacity: it was accepted once. A settled job comes back
    /// with its journaled outcome. `spec` is the journaled spec, or why it
    /// no longer parses: such a job cannot run, so an unsettled one settles
    /// failed and the `Finish` record to journal is returned.
    pub fn recover(
        &mut self,
        id: u64,
        spec: Result<JobSpec, String>,
        state: RecoveredState,
    ) -> Option<JournalEvent> {
        self.next_id = self.next_id.max(id + 1);
        let (spec, unparsed) = match spec {
            Ok(spec) => (spec, None),
            Err(e) => (
                JobSpec::Run(RunSpec::default()),
                Some(format!("unrecoverable journaled spec: {e}")),
            ),
        };
        let mut job = queued(id, spec);
        match (state, unparsed) {
            (RecoveredState::Queued | RecoveredState::Interrupted, None) => {
                self.enqueue(job);
                self.metrics.recovered += 1;
                return None;
            }
            (RecoveredState::Queued | RecoveredState::Interrupted, Some(reason)) => {
                self.jobs.insert(id, job);
                return Some(self.settle(id, Ending::Finished(Outcome::Failed(reason), None)));
            }
            (_, Some(reason)) => (job.state, job.error) = (JobState::Failed, Some(reason)),
            (RecoveredState::Finished { ok: true, body }, None) => match json::parse(&body) {
                Ok(_) => (job.state, job.result) = (JobState::Done, Some(body)),
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(format!("unrecoverable journaled result: {e}"));
                }
            },
            (RecoveredState::Finished { ok: false, body }, None) => {
                (job.state, job.error) = (JobState::Failed, Some(body));
            }
            (RecoveredState::Cancelled, None) => job.state = JobState::Cancelled,
        }
        self.jobs.insert(id, job);
        self.retain(id);
        None
    }

    /// Shuts admission: reservations are refused, while queued jobs still
    /// run. Returns how many jobs were queued.
    pub fn close(&mut self) -> usize {
        self.closed = true;
        self.queue.len()
    }

    /// Counts one HTTP request.
    pub fn count_request(&mut self) {
        self.metrics.requests += 1;
    }

    /// Counts checkpoints quarantined on the fallback ladder.
    pub fn count_quarantined(&mut self, checkpoints: u64) {
        self.metrics.ckpt_quarantined += checkpoints;
    }

    /// Whether [`ServeCore::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether the core is closed with nothing queued or reserved left:
    /// the workers' signal to exit.
    pub fn is_drained(&self) -> bool {
        self.closed && self.queue.is_empty() && self.reserved == 0
    }

    /// A job: unsettled, or among the last `finished_cap` settled.
    pub fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// Every job held, in ID order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// The queued job IDs, next first.
    pub fn queued(&self) -> impl Iterator<Item = u64> + '_ {
        self.queue.iter().copied()
    }

    /// The retained settled job IDs, oldest settle first.
    pub fn settled(&self) -> impl Iterator<Item = u64> + '_ {
        self.settled.iter().copied()
    }

    /// Queue places held by reservations.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Settled jobs evicted past the retention cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics document's registry for a server of `workers` workers
    /// under config `generation`.
    pub fn registry(&self, workers: usize, generation: u64) -> Registry {
        self.metrics
            .to_registry(self.queue.len(), workers, self.evicted, generation)
    }

    /// The one settle path: sets the unsettled job's end, counts it, takes
    /// it off the queue or a worker, drops its progress snapshot, retains
    /// it, and returns the record to journal.
    fn settle(&mut self, id: u64, ending: Ending) -> JournalEvent {
        let job = self.jobs.get_mut(&id).expect("settling a held job");
        match job.state {
            JobState::Queued => self.queue.retain(|&queued| queued != id),
            JobState::Running => self.metrics.busy -= 1,
            settled => panic!("job {id} settles twice (it is {})", settled.as_str()),
        }
        job.progress = None;
        let m = &mut self.metrics;
        let event = match ending {
            Ending::Cancelled => {
                job.state = JobState::Cancelled;
                m.cancelled += 1;
                JournalEvent::Cancel { id }
            }
            Ending::Finished(outcome, wall_us) => {
                job.wall_us = wall_us;
                if let Some(us) = wall_us {
                    m.record_latency(us);
                }
                let (ok, body) = match outcome {
                    Outcome::Done(result) => {
                        m.done += 1;
                        m.runs_executed += job.spec.runs() as u64;
                        (true, result)
                    }
                    Outcome::Failed(error) => (false, error),
                    Outcome::Panicked(error) => {
                        m.panicked += 1;
                        (false, error)
                    }
                    Outcome::TimedOut(error) => {
                        m.timed_out += 1;
                        (false, error)
                    }
                };
                if ok {
                    job.state = JobState::Done;
                    job.result = Some(body.clone());
                } else {
                    m.failed += 1;
                    job.state = JobState::Failed;
                    job.error = Some(body.clone());
                }
                JournalEvent::Finish { id, ok, body }
            }
        };
        self.retain(id);
        event
    }

    /// Holds a queued job and gives it its place in the FIFO, in ID order
    /// (a reservation may be admitted after a later one).
    fn enqueue(&mut self, job: JobRecord) {
        let at = self.queue.partition_point(|&queued| queued < job.id);
        self.queue.insert(at, job.id);
        self.jobs.insert(job.id, job);
    }

    /// Appends a settled job to the retained list and evicts the oldest
    /// settles past `finished_cap`.
    fn retain(&mut self, id: u64) {
        self.settled.push_back(id);
        while self.settled.len() > self.finished_cap {
            let old = self.settled.pop_front().expect("over the cap");
            self.jobs.remove(&old);
            self.evicted += 1;
        }
    }
}

/// A fresh queued record.
fn queued(id: u64, spec: JobSpec) -> JobRecord {
    JobRecord {
        id,
        state: JobState::Queued,
        spec,
        result: None,
        error: None,
        wall_us: None,
        progress: None,
    }
}
