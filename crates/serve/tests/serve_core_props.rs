//! Property tests of the serve core: arbitrary interleavings of boot-time
//! recovery, reservations (durable, refused, or failing to journal),
//! workers starting, publishing and finishing jobs, deadlines abandoning
//! runners whose late results and progress then arrive, cancels and a
//! close never break the job invariants, and a core driven to drained
//! settles every job exactly once with exactly one journaled `Finish` or
//! `Cancel` — on the in-repo `baryon_sim::check` harness, which shrinks a
//! failing interleaving to a short one. The deterministic tests below
//! pin the single transitions.

use baryon_bench::spec::{JobSpec, RunSpec};
use baryon_serve::journal::{JournalEvent, RecoveredState};
use baryon_serve::serve_core::{CancelOutcome, JobState, Outcome, Refusal, ServeCore};
use baryon_sim::check::{props, Gen};
use std::collections::{BTreeSet, HashMap, HashSet};

const QUEUE_CAP: usize = 4;
const FINISHED_CAP: usize = 5;
const WORKERS: usize = 3;

fn spec(seed: u64) -> JobSpec {
    JobSpec::Run(RunSpec {
        insts: 1_000,
        warmup: 100,
        scale: 2048,
        seed,
        ..RunSpec::default()
    })
}

/// How a worker's run ends.
#[derive(Debug, Clone, Copy)]
enum End {
    Done,
    Failed,
    Panicked,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A submission reserves a queue place.
    Reserve,
    /// A reservation's `Submit` record became durable.
    Admit {
        pick: usize,
    },
    /// A reservation's `Submit` record could not be journaled.
    JournalFail {
        pick: usize,
    },
    /// A free worker takes the next job.
    Start {
        worker: usize,
    },
    /// A worker's run publishes progress.
    Progress {
        worker: usize,
    },
    /// A worker's run ends.
    Finish {
        worker: usize,
        end: End,
    },
    /// A worker's deadline passes: the job fails, its runner is abandoned.
    Deadline {
        worker: usize,
    },
    /// An abandoned runner publishes, or delivers its late result.
    Late {
        pick: usize,
        publish: bool,
    },
    Cancel {
        pick: usize,
    },
    Close,
}

fn gen_op(g: &mut Gen) -> Op {
    let worker = g.usize_range(0, WORKERS);
    let pick = g.choice(64);
    match g.choice(16) {
        0..=2 => Op::Reserve,
        3 | 4 => Op::Admit { pick },
        5 => Op::JournalFail { pick },
        6..=8 => Op::Start { worker },
        9 => Op::Progress { worker },
        10 | 11 => Op::Finish {
            worker,
            end: [End::Done, End::Failed, End::Panicked][g.choice(3)],
        },
        12 => Op::Deadline { worker },
        13 => Op::Late {
            pick,
            publish: g.bool(),
        },
        14 => Op::Cancel { pick },
        _ => {
            if g.choice(4) == 0 {
                Op::Close
            } else {
                Op::Reserve
            }
        }
    }
}

/// A journaled job for boot-time recovery: its state and whether its spec
/// still parses.
fn gen_recovered(g: &mut Gen) -> (RecoveredState, bool) {
    let state = match g.choice(6) {
        0 => RecoveredState::Queued,
        1 => RecoveredState::Interrupted,
        2 => RecoveredState::Finished {
            ok: true,
            body: r#"{"ipc":1}"#.to_owned(),
        },
        3 => RecoveredState::Finished {
            ok: true,
            body: "{torn".to_owned(),
        },
        4 => RecoveredState::Finished {
            ok: false,
            body: "boom".to_owned(),
        },
        _ => RecoveredState::Cancelled,
    };
    (state, g.choice(6) != 0)
}

/// The counters the model expects.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    submitted: u64,
    rejected: u64,
    done: u64,
    failed: u64,
    timed_out: u64,
    panicked: u64,
    cancelled: u64,
    recovered: u64,
    runs_executed: u64,
    busy: usize,
}

/// A fake shard around one core: workers, in-flight submissions, runners
/// cut loose by a deadline, and what the core asked to journal.
struct Model {
    core: ServeCore,
    /// Reserved IDs whose `Submit` record is being journaled.
    pending: Vec<u64>,
    workers: [Option<u64>; WORKERS],
    abandoned: Vec<u64>,
    /// Every ID the core recovered, or issued and did not take back.
    known: BTreeSet<u64>,
    /// The highest ID issued or recovered.
    last_id: u64,
    /// Recovered jobs settled in an earlier life: their record is already
    /// in the journal.
    prior: HashSet<u64>,
    /// The records the core returned to journal, in order.
    journal: Vec<JournalEvent>,
    /// Settled jobs in settle order, recovered settled ones first.
    settle_order: Vec<u64>,
    /// Each settled job's end as first seen: state, result, error.
    ends: HashMap<u64, (JobState, Option<String>, Option<String>)>,
    /// Progress publishes per running job.
    published: HashMap<u64, u64>,
    counts: Counts,
    closed: bool,
}

impl Model {
    /// A core that recovered `journaled` jobs (IDs 1..) at boot.
    fn boot(journaled: Vec<(RecoveredState, bool)>) -> Model {
        let mut model = Model {
            core: ServeCore::new(QUEUE_CAP, FINISHED_CAP),
            pending: Vec::new(),
            workers: [None; WORKERS],
            abandoned: Vec::new(),
            known: BTreeSet::new(),
            last_id: 0,
            prior: HashSet::new(),
            journal: Vec::new(),
            settle_order: Vec::new(),
            ends: HashMap::new(),
            published: HashMap::new(),
            counts: Counts::default(),
            closed: false,
        };
        for (i, (state, parses)) in journaled.into_iter().enumerate() {
            let id = i as u64 + 1;
            model.known.insert(id);
            model.last_id = id;
            let unsettled = matches!(state, RecoveredState::Queued | RecoveredState::Interrupted);
            let parsed = if parses {
                Ok(spec(id))
            } else {
                Err("no such workload".to_owned())
            };
            let event = model.core.recover(id, parsed, state.clone());
            let job = model.core.job(id).cloned();
            match (unsettled, parses) {
                (true, true) => {
                    assert_eq!(event, None);
                    model.counts.recovered += 1;
                }
                (true, false) => {
                    let reason = "unrecoverable journaled spec: no such workload".to_owned();
                    assert_eq!(
                        event,
                        Some(JournalEvent::Finish {
                            id,
                            ok: false,
                            body: reason.clone()
                        })
                    );
                    model.journal.extend(event);
                    model.counts.failed += 1;
                    model.settle_order.push(id);
                    let job = job.expect("just settled");
                    assert_eq!(job.error, Some(reason));
                }
                (false, _) => {
                    assert_eq!(event, None, "a settled job is journaled already");
                    model.prior.insert(id);
                    model.settle_order.push(id);
                    let job = job.expect("just installed");
                    let expected = match (&state, parses) {
                        (_, false) => JobState::Failed,
                        (RecoveredState::Finished { ok: true, body }, true) if body != "{torn" => {
                            assert_eq!(job.result.as_deref(), Some(body.as_str()));
                            JobState::Done
                        }
                        (RecoveredState::Cancelled, true) => JobState::Cancelled,
                        _ => JobState::Failed,
                    };
                    assert_eq!(job.state, expected, "{state:?}");
                }
            }
        }
        model
    }

    fn reserve(&mut self) {
        let queued = self.core.queued().count();
        let reserved = self.core.reserved();
        match self.core.reserve() {
            Ok(id) => {
                assert!(!self.closed);
                assert!(queued + reserved < QUEUE_CAP, "reserved past capacity");
                assert!(id > self.last_id, "ID {id} not above {}", self.last_id);
                self.last_id = id;
                self.known.insert(id);
                self.pending.push(id);
            }
            Err(Refusal::Closed) => assert!(self.closed),
            Err(Refusal::Full) => {
                assert!(!self.closed);
                assert!(queued + reserved >= QUEUE_CAP);
                self.counts.rejected += 1;
            }
        }
    }

    fn take_pending(&mut self, pick: usize) -> Option<u64> {
        (!self.pending.is_empty()).then(|| self.pending.swap_remove(pick % self.pending.len()))
    }

    fn start(&mut self, worker: usize) {
        if self.workers[worker].is_some() {
            return;
        }
        let next = self.core.queued().next();
        let lowest = self
            .core
            .jobs()
            .find(|job| job.state == JobState::Queued)
            .map(|job| job.id);
        assert_eq!(next, lowest, "the FIFO hands out the oldest queued job");
        match self.core.next_job() {
            Some((id, spec)) => {
                assert_eq!(Some(id), next);
                let job = self.core.job(id).expect("started job");
                assert_eq!(job.state, JobState::Running);
                assert_eq!(job.spec, spec);
                self.workers[worker] = Some(id);
                self.counts.busy += 1;
            }
            None => assert_eq!(next, None, "a queued job waits for a free worker"),
        }
    }

    /// Records what a settle returned.
    fn settled(&mut self, id: u64, event: Option<JournalEvent>) {
        let event = event.unwrap_or_else(|| panic!("job {id} did not settle"));
        assert_eq!(event.id(), id);
        self.journal.push(event);
        self.settle_order.push(id);
        self.published.remove(&id);
    }

    fn finish(&mut self, worker: usize, end: End) {
        let Some(id) = self.workers[worker].take() else {
            return;
        };
        self.counts.busy -= 1;
        let outcome = match end {
            End::Done => {
                self.counts.done += 1;
                self.counts.runs_executed += 1;
                Outcome::Done(format!(r#"{{"job":{id}}}"#))
            }
            End::Failed => {
                self.counts.failed += 1;
                Outcome::Failed(format!("job {id} failed"))
            }
            End::Panicked => {
                self.counts.failed += 1;
                self.counts.panicked += 1;
                Outcome::Panicked(format!("worker panicked in job {id}"))
            }
        };
        let event = self.core.finish(id, outcome, 7);
        self.settled(id, event);
        assert_eq!(self.core.job(id).and_then(|job| job.wall_us), Some(7));
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Reserve => self.reserve(),
            Op::Admit { pick } => {
                if let Some(id) = self.take_pending(pick) {
                    self.core.admit(id, spec(id));
                    self.counts.submitted += 1;
                    assert_eq!(
                        self.core.job(id).map(|job| job.state),
                        Some(JobState::Queued)
                    );
                }
            }
            Op::JournalFail { pick } => {
                if let Some(id) = self.take_pending(pick) {
                    self.core.unreserve();
                    self.known.remove(&id);
                    assert!(self.core.job(id).is_none(), "a refused job leaves no trace");
                }
            }
            Op::Start { worker } => self.start(worker),
            Op::Progress { worker } => {
                if let Some(id) = self.workers[worker] {
                    self.core.publish(id, |p| p.ops += 10);
                    *self.published.entry(id).or_default() += 1;
                }
            }
            Op::Finish { worker, end } => self.finish(worker, end),
            Op::Deadline { worker } => {
                let Some(id) = self.workers[worker].take() else {
                    return;
                };
                self.counts.busy -= 1;
                self.counts.failed += 1;
                self.counts.timed_out += 1;
                let reason = format!("deadline exceeded in job {id}");
                let event = self.core.finish(id, Outcome::TimedOut(reason), 100);
                self.settled(id, event);
                self.abandoned.push(id);
            }
            Op::Late { pick, publish } => {
                let Some(&id) = self.abandoned.get(pick % self.abandoned.len().max(1)) else {
                    return;
                };
                let before = self.core.job(id).cloned();
                if publish {
                    self.core.publish(id, |p| p.ops += 1);
                } else {
                    let late = self.core.finish(id, Outcome::Done("{}".into()), 1);
                    assert_eq!(late, None, "a late result landed on job {id}");
                }
                let after = self.core.job(id);
                assert_eq!(
                    before.map(|job| (job.state, job.result, job.progress)),
                    after.map(|job| (job.state, job.result.clone(), job.progress.clone())),
                    "an abandoned runner moved job {id}"
                );
            }
            Op::Cancel { pick } => {
                let ids: Vec<u64> = self.known.iter().copied().collect();
                let id = ids.get(pick % (ids.len() + 1)).copied().unwrap_or(999);
                let before = self.core.job(id).map(|job| job.state);
                match self.core.cancel(id) {
                    Ok(event) => {
                        assert_eq!(before, Some(JobState::Queued));
                        assert_eq!(event, JournalEvent::Cancel { id });
                        self.counts.cancelled += 1;
                        self.settled(id, Some(event));
                    }
                    Err(CancelOutcome::TooLate(state)) => {
                        assert_eq!(before, Some(state));
                        assert_ne!(state, JobState::Queued);
                    }
                    Err(CancelOutcome::NotFound) => assert_eq!(before, None),
                }
            }
            Op::Close => {
                let queued = self.core.queued().count();
                assert_eq!(self.core.close(), queued);
                self.closed = true;
            }
        }
    }

    /// The invariants that hold after every step.
    fn check(&mut self) {
        let core = &self.core;
        // The FIFO is exactly the queued jobs, in ID order.
        let fifo: Vec<u64> = core.queued().collect();
        let queued: Vec<u64> = core
            .jobs()
            .filter(|job| job.state == JobState::Queued)
            .map(|job| job.id)
            .collect();
        assert_eq!(fifo, queued, "FIFO vs queued jobs in ID order");
        // Every job settles once, with one journaled record that says how.
        for &id in &self.known {
            let records: Vec<&JournalEvent> = self
                .journal
                .iter()
                .filter(|event| event.id() == id)
                .collect();
            let job = core.job(id);
            match job {
                Some(job) if job.state.is_settled() => {
                    assert_eq!(job.progress, None, "settled job {id} keeps a snapshot");
                    let end = (job.state, job.result.clone(), job.error.clone());
                    let first = self.ends.entry(id).or_insert_with(|| end.clone());
                    assert_eq!(*first, end, "job {id} settled twice");
                    if self.prior.contains(&id) {
                        assert!(records.is_empty(), "job {id} journaled again");
                        continue;
                    }
                    let expected = match job.state {
                        JobState::Cancelled => JournalEvent::Cancel { id },
                        JobState::Done => JournalEvent::Finish {
                            id,
                            ok: true,
                            body: job.result.clone().expect("a done job's result"),
                        },
                        _ => JournalEvent::Finish {
                            id,
                            ok: false,
                            body: job.error.clone().expect("a failed job's error"),
                        },
                    };
                    assert_eq!(records, [&expected], "job {id}'s journal records");
                }
                Some(job) => {
                    assert!(records.is_empty(), "open job {id} journaled {records:?}");
                    assert!(!self.ends.contains_key(&id), "job {id} reopened");
                    let publishes = self.published.get(&id).copied().unwrap_or(0);
                    assert_eq!(
                        job.progress.as_ref().map(|p| (p.seq, p.ops)),
                        (publishes > 0).then_some((publishes, 10 * publishes)),
                        "job {id}'s progress"
                    );
                }
                None if self.pending.contains(&id) => assert!(records.is_empty()),
                None => {
                    let settled_here = !self.prior.contains(&id);
                    let journaled = usize::from(settled_here);
                    assert!(
                        self.ends.contains_key(&id) || self.settle_order.contains(&id),
                        "job {id} vanished unsettled"
                    );
                    assert_eq!(records.len(), journaled, "evicted job {id}'s records");
                }
            }
        }
        // done + failed + cancelled is the jobs settled in this life.
        let m = core.metrics();
        assert_eq!(
            (m.done + m.failed + m.cancelled) as usize,
            self.journal.len(),
            "settle counters vs journaled settles"
        );
        let counts = Counts {
            submitted: m.submitted,
            rejected: m.rejected,
            done: m.done,
            failed: m.failed,
            timed_out: m.timed_out,
            panicked: m.panicked,
            cancelled: m.cancelled,
            recovered: m.recovered,
            runs_executed: m.runs_executed,
            busy: m.busy,
        };
        assert_eq!(counts, self.counts);
        let running = core
            .jobs()
            .filter(|job| job.state == JobState::Running)
            .count();
        let holding = self.workers.iter().flatten().count();
        assert_eq!((m.busy, running), (holding, holding), "busy workers");
        // The newest settles are retained, the oldest evicted first.
        let retained: Vec<u64> = core.settled().collect();
        let keep = self.settle_order.len().min(FINISHED_CAP);
        assert_eq!(
            retained,
            self.settle_order[self.settle_order.len() - keep..],
            "retained settled jobs"
        );
        assert_eq!(core.evicted(), (self.settle_order.len() - keep) as u64);
        for id in &self.settle_order[..self.settle_order.len() - keep] {
            assert!(core.job(*id).is_none(), "evicted job {id} still held");
        }
        let settled_held = core.jobs().filter(|job| job.state.is_settled()).count();
        assert_eq!(settled_held, retained.len());
        // Reservations are the pending submissions; a closed core with
        // nothing left yields no work.
        assert_eq!(core.reserved(), self.pending.len());
        assert_eq!(core.is_closed(), self.closed);
        assert_eq!(
            core.is_drained(),
            self.closed && fifo.is_empty() && self.pending.is_empty()
        );
    }

    /// Closes the core, lands every in-flight submission, and runs every
    /// worker until the core is drained.
    fn drain(&mut self, journaled: bool) {
        self.apply(Op::Close);
        while !self.pending.is_empty() {
            let op = if journaled {
                Op::Admit { pick: 0 }
            } else {
                Op::JournalFail { pick: 0 }
            };
            self.apply(op);
            self.check();
        }
        for _ in 0..1_000 {
            if self.core.is_drained() && self.workers.iter().all(Option::is_none) {
                for worker in 0..WORKERS {
                    self.start(worker);
                }
                assert!(
                    self.workers.iter().all(Option::is_none),
                    "a drained core yields work"
                );
                return;
            }
            for worker in 0..WORKERS {
                self.apply(Op::Start { worker });
                self.apply(Op::Finish {
                    worker,
                    end: End::Done,
                });
                self.check();
            }
        }
        panic!("the core never drained");
    }

    /// The invariants of a drained core: every job settled.
    fn check_drained(&self) {
        for id in &self.known {
            if let Some(job) = self.core.job(*id) {
                assert!(job.state.is_settled(), "job {id} never settled");
            }
        }
        assert_eq!(self.core.metrics().busy, 0);
    }
}

#[test]
fn arbitrary_interleavings_keep_the_job_state_consistent() {
    props("serve_core_interleavings").run(|g| {
        let journaled = (0..g.usize_range(0, 9)).map(|_| gen_recovered(g)).collect();
        let mut model = Model::boot(journaled);
        model.check();
        let steps = g.usize_range(1, 120);
        for _ in 0..steps {
            let op = gen_op(g);
            g.note(format!("{op:?}"));
            model.apply(op);
            model.check();
        }
        model.drain(g.bool());
        model.check_drained();
    });
}

/// Admits one job and returns its ID.
fn submit(core: &mut ServeCore) -> u64 {
    let id = core.reserve().expect("room");
    core.admit(id, spec(id));
    id
}

/// Admits and starts one job, which must be the next queued.
fn start(core: &mut ServeCore) -> u64 {
    let id = submit(core);
    assert_eq!(core.next_job().map(|(id, _)| id), Some(id));
    id
}

#[test]
fn ids_are_monotonic_from_one_and_never_reused() {
    let mut core = ServeCore::new(8, 8);
    assert_eq!(submit(&mut core), 1);
    assert_eq!(submit(&mut core), 2);
    // A reservation whose `Submit` record failed leaves no trace, and its
    // ID is not reused.
    assert_eq!(core.reserve(), Ok(3));
    core.unreserve();
    assert!(core.job(3).is_none());
    assert_eq!(submit(&mut core), 4);
    assert_eq!(core.metrics().submitted, 3);
}

#[test]
fn a_job_runs_from_queued_to_done_or_failed() {
    let mut core = ServeCore::new(8, 8);
    let id = submit(&mut core);
    assert_eq!(core.job(id).map(|job| job.state), Some(JobState::Queued));
    let text = core.job(id).expect("held").to_json().render();
    assert!(text.contains("\"id\":1"), "{text}");
    assert!(text.contains("\"state\":\"queued\""), "{text}");
    assert!(text.contains("\"spec\":{"), "{text}");
    assert!(!text.contains("\"result\""), "{text}");
    core.next_job().expect("queued");
    assert_eq!(core.job(id).map(|job| job.state), Some(JobState::Running));
    assert_eq!(core.metrics().busy, 1);
    let event = core.finish(id, Outcome::Done(r#"{"x":1}"#.into()), 9);
    assert_eq!(
        event,
        Some(JournalEvent::Finish {
            id,
            ok: true,
            body: r#"{"x":1}"#.into()
        })
    );
    let job = core.job(id).expect("retained");
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.wall_us, Some(9));
    assert_eq!(job.result.as_deref(), Some(r#"{"x":1}"#));
    assert!(job.error.is_none());
    let text = job.to_json().render();
    assert!(text.contains("\"state\":\"done\""), "{text}");
    assert!(text.contains("\"wall_us\":9"), "{text}");
    assert!(text.contains("\"result\":{\"x\":1}"), "{text}");
    assert_eq!(
        (
            core.metrics().busy,
            core.metrics().done,
            core.metrics().latency_us.count()
        ),
        (0, 1, 1)
    );

    let id = start(&mut core);
    core.finish(id, Outcome::Failed("boom".into()), 5);
    let job = core.job(id).expect("retained");
    assert_eq!(job.state, JobState::Failed);
    assert_eq!(job.error.as_deref(), Some("boom"));
    assert!(job.result.is_none());
    let id = start(&mut core);
    core.finish(id, Outcome::Panicked("worker panicked: x".into()), 5);
    let m = core.metrics();
    assert_eq!((m.failed, m.panicked, m.timed_out), (2, 1, 0));
}

#[test]
fn cancel_only_while_queued() {
    let mut core = ServeCore::new(8, 8);
    let id = submit(&mut core);
    assert_eq!(core.cancel(id), Ok(JournalEvent::Cancel { id }));
    assert_eq!(core.job(id).map(|job| job.state), Some(JobState::Cancelled));
    // A cancelled job never starts.
    assert_eq!(core.queued().count(), 0);
    assert_eq!(core.next_job(), None);
    let id2 = start(&mut core);
    assert_eq!(
        core.cancel(id2),
        Err(CancelOutcome::TooLate(JobState::Running))
    );
    assert_eq!(
        core.cancel(id),
        Err(CancelOutcome::TooLate(JobState::Cancelled))
    );
    assert_eq!(core.cancel(999), Err(CancelOutcome::NotFound));
    assert_eq!(core.metrics().cancelled, 1);
}

#[test]
fn finish_only_lands_on_running_jobs() {
    let mut core = ServeCore::new(8, 8);
    let id = submit(&mut core);
    // Not started yet: a stray result must not settle a queued job.
    assert_eq!(core.finish(id, Outcome::Done("null".into()), 1), None);
    assert_eq!(core.job(id).map(|job| job.state), Some(JobState::Queued));
    core.next_job().expect("queued");
    let timed_out = core.finish(id, Outcome::TimedOut("deadline exceeded".into()), 2);
    assert!(timed_out.is_some());
    // The runner's late success arrives after the deadline failed it:
    // discarded, the terminal state never flips and no counter moves.
    assert_eq!(core.finish(id, Outcome::Done("null".into()), 3), None);
    let job = core.job(id).expect("retained");
    assert_eq!(job.state, JobState::Failed);
    assert_eq!(job.error.as_deref(), Some("deadline exceeded"));
    assert_eq!(job.wall_us, Some(2));
    assert!(job.result.is_none());
    let m = core.metrics();
    assert_eq!((m.done, m.failed, m.timed_out), (0, 1, 1));
    assert_eq!(core.finish(999, Outcome::Done("null".into()), 4), None);
}

#[test]
fn a_full_queue_refuses_and_a_closed_one_drains() {
    let mut core = ServeCore::new(2, 8);
    let first = submit(&mut core);
    // A reserved place counts against the queue.
    let second = core.reserve().expect("room");
    assert_eq!(core.reserve(), Err(Refusal::Full));
    assert_eq!(core.metrics().rejected, 1);
    core.admit(second, spec(second));
    assert_eq!(core.queued().collect::<Vec<_>>(), [first, second]);
    assert_eq!(core.next_job().map(|(id, _)| id), Some(first));
    let third = core.reserve().expect("room again");
    core.admit(third, spec(third));
    // Closed: reservations refused, queued jobs still drain, in order.
    assert_eq!(core.close(), 2);
    assert_eq!(core.reserve(), Err(Refusal::Closed));
    assert!(!core.is_drained());
    assert_eq!(core.next_job().map(|(id, _)| id), Some(second));
    assert_eq!(core.next_job().map(|(id, _)| id), Some(third));
    assert!(core.is_drained());
    assert_eq!(core.next_job(), None);
    assert_eq!(core.next_job(), None, "stays drained");
    assert_eq!(core.reserve(), Err(Refusal::Closed));
}

#[test]
fn a_reservation_keeps_a_closed_core_from_draining() {
    let mut core = ServeCore::new(2, 8);
    let id = core.reserve().expect("room");
    core.close();
    assert!(
        !core.is_drained(),
        "an accepted submission is still landing"
    );
    core.admit(id, spec(id));
    assert_eq!(core.next_job().map(|(id, _)| id), Some(id));
    assert!(core.is_drained());
}

#[test]
#[should_panic(expected = "capacity")]
fn zero_capacity_panics() {
    let _ = ServeCore::new(0, 8);
}

#[test]
fn settled_jobs_are_bounded_oldest_first() {
    let mut core = ServeCore::new(8, 2);
    // Settle four jobs; the two oldest must be evicted.
    for _ in 0..4 {
        let id = start(&mut core);
        core.finish(id, Outcome::Done("null".into()), 1);
    }
    assert_eq!(core.evicted(), 2);
    assert!(core.job(1).is_none());
    assert!(core.job(2).is_none());
    assert!(core.job(3).is_some());
    assert!(core.job(4).is_some());
    // Live jobs never count against the cap and are never evicted.
    let live = start(&mut core);
    let id = start(&mut core);
    core.finish(id, Outcome::Failed("x".into()), 1);
    assert_eq!(core.evicted(), 3);
    assert_eq!(core.job(live).map(|job| job.state), Some(JobState::Running));
    // Cancellation settles a job too.
    let id = submit(&mut core);
    core.cancel(id).expect("queued");
    assert_eq!(core.evicted(), 4);
    assert_eq!(core.settled().collect::<Vec<_>>(), [6, 7]);
    // IDs keep climbing even though old records are gone.
    assert_eq!(submit(&mut core), 8);
}

#[test]
fn progress_bumps_seq_and_a_settle_drops_it() {
    let mut core = ServeCore::new(8, 8);
    let id = submit(&mut core);
    core.publish(id, |p| p.ops = 1);
    assert_eq!(core.job(id).and_then(|job| job.progress.clone()), None);
    core.next_job().expect("queued");
    core.publish(id, |p| {
        p.phase = "warmup";
        p.ops = 100;
        p.cells_total = 1;
    });
    let p = core
        .job(id)
        .and_then(|job| job.progress.clone())
        .expect("published");
    assert_eq!((p.seq, p.ops, p.phase), (1, 100, "warmup"));
    core.publish(id, |p| p.ops = 200);
    let p = core
        .job(id)
        .and_then(|job| job.progress.clone())
        .expect("published");
    assert_eq!((p.seq, p.ops), (2, 200));
    core.finish(id, Outcome::TimedOut("late".into()), 1);
    assert_eq!(core.job(id).and_then(|job| job.progress.clone()), None);
    // An abandoned runner publishes nothing.
    core.publish(id, |p| p.ops = 300);
    assert_eq!(core.job(id).and_then(|job| job.progress.clone()), None);
}

#[test]
fn recovery_installs_past_capacity_and_floors_the_ids() {
    let mut core = ServeCore::new(1, 8);
    assert_eq!(core.recover(2, Ok(spec(2)), RecoveredState::Queued), None);
    assert_eq!(
        core.recover(3, Ok(spec(3)), RecoveredState::Interrupted),
        None
    );
    let done = RecoveredState::Finished {
        ok: true,
        body: "null".into(),
    };
    assert_eq!(core.recover(7, Ok(spec(7)), done), None);
    assert_eq!(core.job(7).map(|job| job.state), Some(JobState::Done));
    assert_eq!(
        core.job(7).and_then(|job| job.result.clone()).as_deref(),
        Some("null")
    );
    // Both unsettled jobs are queued though the queue holds one.
    assert_eq!(core.queued().collect::<Vec<_>>(), [2, 3]);
    assert_eq!(core.metrics().recovered, 2);
    assert_eq!(core.reserve(), Err(Refusal::Full));
    // A spec that no longer parses settles an unsettled job failed.
    let refused = core.recover(8, Err("gone".into()), RecoveredState::Queued);
    assert_eq!(
        refused,
        Some(JournalEvent::Finish {
            id: 8,
            ok: false,
            body: "unrecoverable journaled spec: gone".into()
        })
    );
    assert_eq!(core.metrics().failed, 1);
    // New IDs start above recovered ones.
    assert_eq!(core.next_job().map(|(id, _)| id), Some(2));
    assert_eq!(core.next_job().map(|(id, _)| id), Some(3));
    assert_eq!(core.reserve(), Ok(9));
}
