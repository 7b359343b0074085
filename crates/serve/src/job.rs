//! Job lifecycle: monotonic IDs, state machine, and the shared table the
//! HTTP handlers and workers both consult.
//!
//! States move strictly forward:
//!
//! ```text
//! queued ──▶ running ──▶ done | failed
//!    └─────▶ cancelled                  (only queued jobs can be cancelled)
//! ```

use baryon_bench::spec::JobSpec;
use baryon_sim::json::{self, Json};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the result document is available.
    Done,
    /// Finished with an error (bad spec caught late, or a worker panic).
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

/// Outcome of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued and is now cancelled.
    Cancelled,
    /// The job exists but already left the queue (running or finished).
    TooLate(JobState),
    /// No such job.
    NotFound,
}

#[derive(Default)]
struct TableInner {
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    evicted: u64,
}

/// Evicts the oldest finished (done / failed / cancelled) jobs beyond
/// `cap`, so a long-lived server's table cannot grow without bound.
/// Queued and running jobs are never evicted. Returns how many went.
fn evict_excess(inner: &mut TableInner, cap: usize) -> u64 {
    let terminal =
        |s: JobState| matches!(s, JobState::Done | JobState::Failed | JobState::Cancelled);
    // BTreeMap iterates in ascending ID order, so this list is
    // oldest-first and the front is what goes.
    let finished: Vec<u64> = inner
        .jobs
        .values()
        .filter(|r| terminal(r.state))
        .map(|r| r.id)
        .collect();
    let excess = finished.len().saturating_sub(cap);
    for id in &finished[..excess] {
        inner.jobs.remove(id);
    }
    inner.evicted += excess as u64;
    excess as u64
}

/// The shared, locked registry of every job this server has seen.
pub struct JobTable {
    inner: Mutex<TableInner>,
    finished_cap: usize,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable {
            inner: Mutex::default(),
            finished_cap: usize::MAX,
        }
    }
}

impl JobTable {
    /// Creates an empty table with unbounded retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table that retains at most `cap` finished jobs
    /// (the oldest beyond that are evicted as new ones settle).
    pub fn with_finished_cap(cap: usize) -> Self {
        JobTable {
            inner: Mutex::default(),
            finished_cap: cap.max(1),
        }
    }

    /// Registers a new queued job and returns its ID.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        inner.next_id += 1;
        let id = inner.next_id;
        inner.jobs.insert(
            id,
            JobRecord {
                id,
                state: JobState::Queued,
                spec,
                result: None,
                error: None,
                wall_us: None,
            },
        );
        id
    }

    /// Re-installs a record reconstructed from the journal, preserving
    /// its original ID. The ID counter is floored so new submissions
    /// never collide with recovered jobs.
    pub fn install(&self, record: JobRecord) {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        inner.next_id = inner.next_id.max(record.id);
        inner.jobs.insert(record.id, record);
        evict_excess(&mut inner, self.finished_cap);
    }

    /// Raises the ID counter so future submissions start above `floor` —
    /// used at recovery so new IDs never collide with journaled ones.
    pub fn floor_next_id(&self, floor: u64) {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        inner.next_id = inner.next_id.max(floor);
    }

    /// Total finished jobs evicted by the retention cap so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("job table lock poisoned").evicted
    }

    /// Removes a job that was never enqueued (its queue push was refused),
    /// so a rejected submission leaves no trace.
    pub fn forget(&self, id: u64) {
        self.inner
            .lock()
            .expect("job table lock poisoned")
            .jobs
            .remove(&id);
    }

    /// A snapshot of one job's record.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.inner
            .lock()
            .expect("job table lock poisoned")
            .jobs
            .get(&id)
            .cloned()
    }

    /// Current state only (cheaper than [`JobTable::get`]).
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.inner
            .lock()
            .expect("job table lock poisoned")
            .jobs
            .get(&id)
            .map(|r| r.state)
    }

    /// Cancels a queued job.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        match inner.jobs.get_mut(&id) {
            None => CancelOutcome::NotFound,
            Some(record) if record.state == JobState::Queued => {
                record.state = JobState::Cancelled;
                evict_excess(&mut inner, self.finished_cap);
                CancelOutcome::Cancelled
            }
            Some(record) => CancelOutcome::TooLate(record.state),
        }
    }

    /// Transitions a job to `Running`; returns the spec to execute, or
    /// `None` if the job was cancelled while queued (the worker skips it).
    pub fn start(&self, id: u64) -> Option<JobSpec> {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        let record = inner.jobs.get_mut(&id)?;
        if record.state != JobState::Queued {
            return None;
        }
        record.state = JobState::Running;
        Some(record.spec.clone())
    }

    /// Records a finished execution. Only `Running` jobs transition;
    /// returns whether the outcome landed. A `false` means someone else
    /// already settled the job — e.g. the deadline watchdog failed it and
    /// this is the runner's late result, which must be discarded so the
    /// job's terminal state never flips.
    pub fn finish(&self, id: u64, outcome: Result<Json, String>, wall_us: u64) -> bool {
        let mut inner = self.inner.lock().expect("job table lock poisoned");
        let Some(record) = inner.jobs.get_mut(&id) else {
            return false;
        };
        if record.state != JobState::Running {
            return false;
        }
        record.wall_us = Some(wall_us);
        match outcome {
            Ok(result) => {
                record.state = JobState::Done;
                record.result = Some(result.render());
            }
            Err(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
            }
        }
        evict_excess(&mut inner, self.finished_cap);
        true
    }

    /// Number of jobs ever submitted (== the highest ID so far).
    pub fn submitted(&self) -> u64 {
        self.inner.lock().expect("job table lock poisoned").next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_bench::spec::RunSpec;

    fn spec() -> JobSpec {
        JobSpec::Run(RunSpec::default())
    }

    #[test]
    fn ids_are_monotonic_from_one() {
        let t = JobTable::new();
        assert_eq!(t.submit(spec()), 1);
        assert_eq!(t.submit(spec()), 2);
        assert_eq!(t.submitted(), 2);
    }

    #[test]
    fn lifecycle_happy_path() {
        let t = JobTable::new();
        let id = t.submit(spec());
        assert_eq!(t.state(id), Some(JobState::Queued));
        assert!(t.start(id).is_some());
        assert_eq!(t.state(id), Some(JobState::Running));
        t.finish(id, Ok(Json::Null), 123);
        let r = t.get(id).expect("exists");
        assert_eq!(r.state, JobState::Done);
        assert_eq!(r.wall_us, Some(123));
        assert_eq!(r.result.as_deref(), Some("null"));
        assert!(r.error.is_none());
    }

    #[test]
    fn failure_records_error() {
        let t = JobTable::new();
        let id = t.submit(spec());
        t.start(id);
        t.finish(id, Err("boom".into()), 5);
        let r = t.get(id).expect("exists");
        assert_eq!(r.state, JobState::Failed);
        assert_eq!(r.error.as_deref(), Some("boom"));
        assert!(r.result.is_none());
    }

    #[test]
    fn cancel_only_while_queued() {
        let t = JobTable::new();
        let id = t.submit(spec());
        assert_eq!(t.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(t.state(id), Some(JobState::Cancelled));
        // A cancelled job never starts.
        assert!(t.start(id).is_none());

        let id2 = t.submit(spec());
        t.start(id2);
        assert_eq!(t.cancel(id2), CancelOutcome::TooLate(JobState::Running));
        assert_eq!(t.cancel(999), CancelOutcome::NotFound);
    }

    #[test]
    fn finish_only_lands_on_running_jobs() {
        let t = JobTable::new();
        let id = t.submit(spec());
        // Not started yet: a stray result must not settle a queued job.
        assert!(!t.finish(id, Ok(Json::Null), 1));
        assert_eq!(t.state(id), Some(JobState::Queued));

        t.start(id);
        assert!(t.finish(id, Err("deadline exceeded".into()), 2));
        // The runner's late success arrives after the watchdog failed it:
        // discarded, the terminal state never flips.
        assert!(!t.finish(id, Ok(Json::Null), 3));
        let r = t.get(id).expect("exists");
        assert_eq!(r.state, JobState::Failed);
        assert_eq!(r.error.as_deref(), Some("deadline exceeded"));
        assert_eq!(r.wall_us, Some(2));
        assert!(r.result.is_none());

        assert!(!t.finish(999, Ok(Json::Null), 4), "unknown job");
    }

    #[test]
    fn forget_removes_rejected_submissions() {
        let t = JobTable::new();
        let id = t.submit(spec());
        t.forget(id);
        assert!(t.get(id).is_none());
        // IDs are not reused.
        assert_eq!(t.submit(spec()), id + 1);
    }

    #[test]
    fn finished_jobs_are_bounded_oldest_first() {
        let t = JobTable::with_finished_cap(2);
        // Settle four jobs; the two oldest must be evicted.
        for _ in 0..4 {
            let id = t.submit(spec());
            t.start(id);
            t.finish(id, Ok(Json::Null), 1);
        }
        assert_eq!(t.evictions(), 2);
        assert!(t.get(1).is_none());
        assert!(t.get(2).is_none());
        assert!(t.get(3).is_some());
        assert!(t.get(4).is_some());
        // Live jobs never count against the cap and are never evicted.
        let live = t.submit(spec());
        t.start(live);
        let id = t.submit(spec());
        t.start(id);
        t.finish(id, Err("x".into()), 1);
        assert_eq!(t.evictions(), 3);
        assert_eq!(t.state(live), Some(JobState::Running));
        // Cancellation settles a job too.
        let id = t.submit(spec());
        t.cancel(id);
        assert_eq!(t.evictions(), 4);
        // IDs keep climbing even though old records are gone.
        assert_eq!(t.submit(spec()), 8);
    }

    #[test]
    fn install_preserves_ids_and_floors_the_counter() {
        let t = JobTable::new();
        t.install(JobRecord {
            id: 7,
            state: JobState::Done,
            spec: spec(),
            result: Some("null".to_owned()),
            error: None,
            wall_us: None,
        });
        assert_eq!(t.state(7), Some(JobState::Done));
        assert_eq!(t.submit(spec()), 8, "new IDs start above recovered ones");
    }

    #[test]
    fn status_document_shape() {
        let t = JobTable::new();
        let id = t.submit(spec());
        let text = t.get(id).expect("exists").to_json().render();
        assert!(text.contains("\"id\":1"), "{text}");
        assert!(text.contains("\"state\":\"queued\""), "{text}");
        assert!(text.contains("\"spec\":{"), "{text}");
        assert!(!text.contains("\"result\""), "{text}");
        t.start(id);
        t.finish(id, Ok(Json::obj([("x", Json::from(1u64))])), 9);
        let text = t.get(id).expect("exists").to_json().render();
        assert!(text.contains("\"state\":\"done\""), "{text}");
        assert!(text.contains("\"wall_us\":9"), "{text}");
        assert!(text.contains("\"result\":{\"x\":1}"), "{text}");
    }
}
