//! The coordinator's job board: fleet-wide job records and their
//! dispatch state.
//!
//! The board is the coordinator's single source of truth. Every fleet job
//! is a list of cells, one [`RunSpec`] each, in [`JobSpec::cells`] order:
//! a single run is a job with exactly one cell, a grid sweep has one cell
//! per grid point. A dispatch slot moves a cell from `Pending` to
//! `Dispatched{shard, remote}` on the shard it serves, then to
//! `Done`/`Failed` when the shard-local job settles, and the job settles
//! when its cells do — gathered by [`JobSpec::gather`] into the exact
//! document a single-process execution would have produced.

use baryon_bench::spec::{JobSpec, RunSpec};
use baryon_serve::job::JobState;
use baryon_sim::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::quota::Class;

/// Where one cell stands.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Waiting in the queue for a dispatch slot.
    Pending,
    /// Accepted by a shard as shard-local job `remote`.
    Dispatched {
        /// The shard index executing it.
        shard: usize,
        /// The shard-local job ID to follow.
        remote: u64,
    },
    /// Finished on a shard whose config generation is still mid-rollout:
    /// the result is held back (not settled, not gathered) until the roll
    /// commits. [`JobBoard::resolve_staged`] then promotes it to `Done`,
    /// or — if the roll failed and was rolled back — discards it and
    /// returns the cell to `Pending` for re-dispatch under the restored
    /// config.
    Staged(Json),
    /// Settled successfully with its result document.
    Done(Json),
    /// Settled with an error.
    Failed(String),
}

/// One unit of shard work: one run of a fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The run a shard executes.
    pub spec: RunSpec,
    /// Its dispatch state.
    pub state: CellState,
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
    /// The result document once `Done`.
    pub result: Option<Json>,
    /// The failure reason once `Failed`.
    pub error: Option<String>,
    /// The job's cells, in [`JobSpec::cells`] order.
    pub cells: Vec<Cell>,
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
            pairs.push(("result".to_owned(), result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_owned(), Json::from(error.as_str())));
        }
        Json::Obj(pairs)
    }

    /// Count of settled-successful cells.
    pub fn cells_done(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| matches!(c.state, CellState::Done(_)))
            .count() as u64
    }

    /// Total cells (1 for a single run).
    pub fn cells_total(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Every dispatched cell as `(cell index, shard, remote)`, only those
    /// on shard `on` when given.
    pub fn dispatched(&self, on: Option<usize>) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(i, c)| match c.state {
                CellState::Dispatched { shard, remote } if on.is_none_or(|s| s == shard) => {
                    Some((i, shard, remote))
                }
                _ => None,
            })
    }

    /// The shard-local event stream a fleet event stream proxies, as
    /// `(shard, remote)`: a dispatched single run's, on the shard it was
    /// dispatched to. `None` for grids and undispatched runs, whose streams are built
    /// from the board.
    pub fn stream_target(&self) -> Option<(usize, u64)> {
        match self.spec {
            JobSpec::Run(_) => self.dispatched(None).next().map(|(_, s, r)| (s, r)),
            JobSpec::Grid(_) => None,
        }
    }
}

/// What [`JobBoard::resolve_staged`] did, for the caller to act on.
pub struct StagedResolution {
    /// Jobs an accept settled, with the quota slot to release exactly
    /// once per entry.
    pub released: Vec<(u64, String, Class)>,
    /// Cells a reject returned to `Pending`, as `(job, cell index)`; the
    /// caller must requeue each.
    pub requeue: Vec<(u64, usize)>,
    /// Staged cells resolved either way (the
    /// `fleet.config.quarantined_results` bump on a reject).
    pub count: u64,
}

/// The coordinator's fleet-wide job table.
#[derive(Default)]
pub struct JobBoard {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, FleetJob>>,
}

impl JobBoard {
    /// An empty board; IDs start at 1.
    pub fn new() -> JobBoard {
        JobBoard {
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// Admits a job (already quota-checked) and returns its fleet ID.
    pub fn admit(&self, spec: JobSpec, client: String, class: Class) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cells = spec
            .cells()
            .into_iter()
            .map(|run| Cell {
                spec: run,
                state: CellState::Pending,
            })
            .collect();
        let job = FleetJob {
            id,
            spec,
            client,
            class,
            state: JobState::Queued,
            result: None,
            error: None,
            cells,
        };
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .insert(id, job);
        id
    }

    /// Removes a job the coordinator decided not to keep (queue overflow
    /// after admit), returning its record.
    pub fn forget(&self, id: u64) -> Option<FleetJob> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .remove(&id)
    }

    /// A clone of the job's record.
    pub fn get(&self, id: u64) -> Option<FleetJob> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .get(&id)
            .cloned()
    }

    /// The job's lifecycle state.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .get(&id)
            .map(|j| j.state)
    }

    /// Runs `apply` on the job's record under the board lock, then
    /// derives the job-level state from its cells: the first failed cell
    /// fails the job, all cells done gathers its result, any cell not
    /// pending marks it running. Returns the `(client, class)` pair when
    /// this call settled the job — the caller must release that quota
    /// slot exactly once.
    pub fn update(&self, id: u64, apply: impl FnOnce(&mut FleetJob)) -> Option<(String, Class)> {
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        let job = jobs.get_mut(&id)?;
        if job.state.is_settled() {
            return None; // late updates cannot reopen a settled job
        }
        apply(job);
        if job.state.is_settled() {
            // `apply` settled it directly (e.g. cancel).
            return Some((job.client.clone(), job.class));
        }
        let failed = job.cells.iter().find_map(|c| match &c.state {
            CellState::Failed(e) => Some(e.clone()),
            _ => None,
        });
        let outcome = if let Some(e) = failed {
            Err(e)
        } else if job
            .cells
            .iter()
            .all(|c| matches!(c.state, CellState::Done(_)))
        {
            let docs = job
                .cells
                .iter()
                .map(|c| match &c.state {
                    CellState::Done(doc) => Some(doc.clone()),
                    _ => None,
                })
                .collect();
            job.spec.gather(docs)
        } else {
            if job.cells.iter().any(|c| c.state != CellState::Pending) {
                job.state = JobState::Running;
            }
            return None;
        };
        match outcome {
            Ok(doc) => {
                job.state = JobState::Done;
                job.result = Some(doc);
            }
            Err(e) => {
                job.state = JobState::Failed;
                job.error = Some(e);
            }
        }
        Some((job.client.clone(), job.class))
    }

    /// Cancels a still-queued job (no cell dispatched yet). Mirrors the
    /// serve layer: running or settled jobs answer `TooLate`.
    pub fn cancel(&self, id: u64) -> baryon_serve::job::CancelOutcome {
        use baryon_serve::job::CancelOutcome;
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        let Some(job) = jobs.get_mut(&id) else {
            return CancelOutcome::NotFound;
        };
        if job.state != JobState::Queued {
            return CancelOutcome::TooLate(job.state);
        }
        job.state = JobState::Cancelled;
        CancelOutcome::Cancelled
    }

    /// Resolves every staged cell on the board after a rollout settles.
    ///
    /// `accept: true` (the roll committed) promotes staged results to
    /// `Done`, settling jobs whose last cell was waiting on the roll;
    /// `accept: false` (the roll failed and was undone) quarantines the
    /// results — they were computed under a config generation that never
    /// committed — and returns the cells to `Pending` for re-dispatch
    /// under the restored config.
    pub fn resolve_staged(&self, accept: bool) -> StagedResolution {
        let ids: Vec<u64> = {
            let jobs = self.jobs.lock().expect("job board lock poisoned");
            jobs.values()
                .filter(|j| {
                    !j.state.is_settled()
                        && j.cells
                            .iter()
                            .any(|c| matches!(c.state, CellState::Staged(_)))
                })
                .map(|j| j.id)
                .collect()
        };
        let mut out = StagedResolution {
            released: Vec::new(),
            requeue: Vec::new(),
            count: 0,
        };
        for id in ids {
            let mut touched: Vec<usize> = Vec::new();
            let released = self.update(id, |job| {
                for (i, cell) in job.cells.iter_mut().enumerate() {
                    if let CellState::Staged(doc) = &cell.state {
                        touched.push(i);
                        cell.state = if accept {
                            CellState::Done(doc.clone())
                        } else {
                            CellState::Pending
                        };
                    }
                }
            });
            out.count += touched.len() as u64;
            if accept {
                out.released
                    .extend(released.map(|(client, class)| (id, client, class)));
            } else {
                out.requeue.extend(touched.into_iter().map(|i| (id, i)));
            }
        }
        out
    }

    /// Snapshot of every unsettled job's ID.
    pub fn active_ids(&self) -> Vec<u64> {
        self.jobs
            .lock()
            .expect("job board lock poisoned")
            .values()
            .filter(|j| !j.state.is_settled())
            .map(|j| j.id)
            .collect()
    }

    /// Counts of `(total, settled)` jobs on the board.
    pub fn counts(&self) -> (usize, usize) {
        let jobs = self.jobs.lock().expect("job board lock poisoned");
        let settled = jobs.values().filter(|j| j.state.is_settled()).count();
        (jobs.len(), settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_bench::spec::GridSpec;
    use baryon_serve::job::CancelOutcome;

    /// Sets cell `i`'s state.
    fn set(board: &JobBoard, id: u64, i: usize, state: CellState) -> Option<(String, Class)> {
        board.update(id, |j| j.cells[i].state = state)
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

    #[test]
    fn single_job_lifecycle_settles_once() {
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "alice".into(),
            Class::Interactive,
        );
        assert_eq!(board.state(id), Some(JobState::Queued));
        assert_eq!(board.get(id).expect("job").cells.len(), 1);

        // Dispatch moves it to running, without settling.
        let dispatched = CellState::Dispatched {
            shard: 0,
            remote: 7,
        };
        assert_eq!(set(&board, id, 0, dispatched), None);
        assert_eq!(board.state(id), Some(JobState::Running));

        // Completion settles it and reports the quota slot to release.
        let settled = set(
            &board,
            id,
            0,
            CellState::Done(Json::obj([("ok", Json::Bool(true))])),
        );
        assert_eq!(settled, Some(("alice".into(), Class::Interactive)));
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert!(job.result.is_some());

        // A late update cannot reopen or re-release.
        assert_eq!(set(&board, id, 0, CellState::Failed("late".into())), None);
        assert_eq!(board.state(id), Some(JobState::Done));
    }

    #[test]
    fn batch_gathers_on_last_cell_and_fails_on_first_error() {
        let grid = tiny_grid();
        let board = JobBoard::new();
        let id = board.admit(JobSpec::Grid(grid.clone()), "bob".into(), Class::Batch);
        let n = board.get(id).expect("job").cells.len();

        // Finish all cells but the last; the job stays running.
        for i in 0..n - 1 {
            let settled = set(&board, id, i, CellState::Done(Json::from(i as u64)));
            assert_eq!(settled, None, "cell {i} must not settle the batch");
        }
        let doc = board.get(id).expect("job").to_json().render();
        assert!(doc.contains("\"cells_total\":2"), "{doc}");
        assert!(doc.contains("\"cells_done\":1"), "{doc}");

        // The last cell settles it; the gather is in row-major order.
        let settled = set(
            &board,
            id,
            n - 1,
            CellState::Done(Json::from((n - 1) as u64)),
        );
        assert_eq!(settled, Some(("bob".into(), Class::Batch)));
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.result.expect("result").render(), r#"{"results":[0,1]}"#);

        // A failing cell fails the whole batch immediately.
        let id2 = board.admit(JobSpec::Grid(grid), "bob".into(), Class::Batch);
        let settled = set(&board, id2, 0, CellState::Failed("no such workload".into()));
        assert_eq!(settled, Some(("bob".into(), Class::Batch)));
        let job = board.get(id2).expect("job");
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.error.as_deref(), Some("no such workload"));
    }

    #[test]
    fn staged_cells_hold_the_gather_until_the_roll_commits() {
        let board = JobBoard::new();
        let id = board.admit(JobSpec::Grid(tiny_grid()), "dana".into(), Class::Batch);

        // One cell settles normally; the other finished on a mid-rollout
        // shard, so its result is staged. The batch must NOT gather yet.
        let settled = board.update(id, |j| {
            j.cells[0].state = CellState::Done(Json::from(0u64));
            j.cells[1].state = CellState::Staged(Json::from(1u64));
        });
        assert_eq!(settled, None, "a staged cell must not settle the batch");
        assert_eq!(board.state(id), Some(JobState::Running));

        // The roll commits: the staged result is promoted and the batch
        // gathers exactly as if the cell had settled directly.
        let resolution = board.resolve_staged(true);
        assert_eq!(resolution.count, 1);
        assert_eq!(resolution.released, vec![(id, "dana".into(), Class::Batch)]);
        assert!(resolution.requeue.is_empty());
        let job = board.get(id).expect("job");
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.result.expect("result").render(), r#"{"results":[0,1]}"#);
    }

    #[test]
    fn rejected_staged_cells_go_back_to_pending_for_redispatch() {
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "erin".into(),
            Class::Interactive,
        );
        set(&board, id, 0, CellState::Staged(Json::from(42u64)));

        // The roll failed: the staged result is quarantined and the cell
        // returns to Pending — no quota released, job still open.
        let resolution = board.resolve_staged(false);
        assert_eq!(resolution.count, 1);
        assert!(resolution.released.is_empty());
        assert_eq!(resolution.requeue, vec![(id, 0)]);
        let job = board.get(id).expect("job");
        assert!(!job.state.is_settled(), "{:?}", job.state);
        assert_eq!(
            job.cells[0].state,
            CellState::Pending,
            "cell must be re-dispatchable"
        );

        // Nothing staged left: resolving again is a no-op.
        assert_eq!(board.resolve_staged(false).count, 0);
    }

    #[test]
    fn cancel_only_reaches_queued_jobs() {
        let board = JobBoard::new();
        assert_eq!(board.cancel(99), CancelOutcome::NotFound);
        let run = || JobSpec::Run(RunSpec::default());
        let id = board.admit(run(), "c".into(), Class::Interactive);
        assert_eq!(board.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(board.state(id), Some(JobState::Cancelled));
        // Slots skip cancelled jobs; a second cancel is too late.
        assert_eq!(
            board.cancel(id),
            CancelOutcome::TooLate(JobState::Cancelled)
        );

        let running = board.admit(run(), "c".into(), Class::Interactive);
        let dispatched = CellState::Dispatched {
            shard: 0,
            remote: 1,
        };
        set(&board, running, 0, dispatched);
        assert_eq!(
            board.cancel(running),
            CancelOutcome::TooLate(JobState::Running)
        );
    }

    #[test]
    fn active_ids_lists_only_unsettled_jobs() {
        let board = JobBoard::new();
        let run = || JobSpec::Run(RunSpec::default());
        let a = board.admit(run(), "x".into(), Class::Interactive);
        let b = board.admit(run(), "x".into(), Class::Interactive);
        set(&board, a, 0, CellState::Done(Json::Null));
        assert_eq!(board.active_ids(), vec![b]);
        assert_eq!(board.counts(), (2, 1));
        board.forget(b);
        assert!(board.active_ids().is_empty());
    }

    #[test]
    fn cells_follow_the_spec_in_row_major_order() {
        let board = JobBoard::new();
        let grid = GridSpec {
            controllers: vec!["simple".into(), "dice".into(), "unison".into()],
            ..tiny_grid()
        };
        let id = board.admit(JobSpec::Grid(grid.clone()), "h".into(), Class::Batch);
        let job = board.get(id).expect("job");
        let specs: Vec<RunSpec> = job.cells.iter().map(|c| c.spec.clone()).collect();
        assert_eq!(specs, grid.expand(), "cells keep row-major order");

        let run = board.admit(
            JobSpec::Run(RunSpec::default()),
            "h".into(),
            Class::Interactive,
        );
        let job = board.get(run).expect("job");
        assert_eq!(job.cells.len(), 1);
        assert_eq!(job.cells[0].spec, RunSpec::default());
    }

    #[test]
    fn a_single_streams_from_the_shard_it_was_dispatched_to() {
        let board = JobBoard::new();
        let id = board.admit(
            JobSpec::Run(RunSpec::default()),
            "f".into(),
            Class::Interactive,
        );
        assert_eq!(board.get(id).expect("job").stream_target(), None);
        let dispatched = CellState::Dispatched {
            shard: 1,
            remote: 5,
        };
        set(&board, id, 0, dispatched.clone());
        let job = board.get(id).expect("job");
        assert_eq!(job.stream_target(), Some((1, 5)));
        assert_eq!(job.dispatched(Some(1)).collect::<Vec<_>>(), [(0, 1, 5)]);
        assert_eq!(job.dispatched(Some(0)).count(), 0);

        // A grid never proxies a shard stream, even with one cell out.
        let grid = board.admit(JobSpec::Grid(tiny_grid()), "f".into(), Class::Batch);
        set(&board, grid, 0, dispatched);
        assert_eq!(board.get(grid).expect("job").stream_target(), None);
    }

    #[test]
    fn a_run_and_a_one_cell_grid_keep_their_wire_formats() {
        let cell = || CellState::Done(Json::obj([("ipc", Json::from(3u64))]));
        let board = JobBoard::new();
        let grid = GridSpec {
            workloads: vec!["ycsb-a".into()],
            ..tiny_grid()
        };
        let run = board.admit(
            JobSpec::Run(grid.expand().remove(0)),
            "g".into(),
            Class::Interactive,
        );
        let one = board.admit(JobSpec::Grid(grid), "g".into(), Class::Batch);
        set(&board, run, 0, cell());
        set(&board, one, 0, cell());

        let run_doc = board.get(run).expect("run").to_json();
        assert!(run_doc.get("cells_total").is_none(), "{}", run_doc.render());
        assert!(run_doc.get("cells_done").is_none(), "{}", run_doc.render());
        assert_eq!(
            run_doc.get("result").expect("result").render(),
            r#"{"ipc":3}"#
        );

        let grid_doc = board.get(one).expect("grid").to_json();
        assert_eq!(grid_doc.get("cells_total").and_then(Json::as_u64), Some(1));
        assert_eq!(grid_doc.get("cells_done").and_then(Json::as_u64), Some(1));
        assert_eq!(
            grid_doc.get("result").expect("result").render(),
            r#"{"results":[{"ipc":3}]}"#
        );
    }
}
