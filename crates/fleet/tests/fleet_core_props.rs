//! Property tests of the fleet core: arbitrary interleavings of
//! admissions, cancels, pauses, quarantines, rollouts and a fake shard's
//! replies (settle, fail, lose, die, garble, finish under a staged
//! generation) never break the dispatch invariants, and a fleet driven to
//! idle settles every job exactly once with the gather a single process
//! would produce — on the in-repo `baryon_sim::check` harness, which
//! shrinks a failing interleaving to a short one.

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::fleet_core::{CellState, Class, FleetCore, Publish, Refusal, Work};
use baryon_serve::job::JobState;
use baryon_sim::check::{props, Gen};
use baryon_sim::json::Json;
use std::collections::{HashMap, HashSet};

const SHARDS: usize = 3;
const SLOTS_PER_SHARD: usize = 2;
const QUEUE_CAP: usize = 5;
const MAX_IN_FLIGHT: usize = 3;
const CLIENTS: [&str; 3] = ["ann", "bo", "cy"];
const WORKLOADS: [&str; 3] = ["ycsb-a", "pr.twi", "505.mcf_r"];
const CONTROLLERS: [&str; 2] = ["simple", "baryon"];

/// A cell a fake slot holds, and whether its shard accepted the POST.
struct Held {
    work: Work,
    posted: bool,
}

/// How a fake shard dies. (One that restarts and replays its journal
/// needs nothing from the core: its slots keep following.)
#[derive(Debug, Clone, Copy)]
enum Death {
    /// Restarts without its journal: every held cell answers `404`.
    Wipe,
    /// Spends its crash-loop budget: the supervisor quarantines it and its
    /// slots hand their cells back.
    Quarantine,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Admit {
        kind: usize,
        client: usize,
        class: Option<Class>,
    },
    Pull {
        slot: usize,
    },
    Post {
        slot: usize,
    },
    Finish {
        slot: usize,
        staged_gen: bool,
    },
    Fail {
        slot: usize,
    },
    Lose {
        slot: usize,
    },
    Die {
        shard: usize,
        how: Death,
    },
    Cancel {
        pick: usize,
    },
    Pause {
        shard: usize,
    },
    Unpause {
        shard: usize,
    },
    Restore {
        shard: usize,
    },
    BeginRoll,
    EndRoll {
        accept: bool,
    },
    ReplyError,
}

fn gen_op(g: &mut Gen) -> Op {
    let slot = g.usize_range(0, SHARDS * SLOTS_PER_SHARD);
    let shard = g.usize_range(0, SHARDS);
    match g.choice(16) {
        0 | 1 => Op::Admit {
            kind: g.choice(8),
            client: g.choice(CLIENTS.len()),
            class: match g.choice(4) {
                0 => Some(Class::Interactive),
                1 => Some(Class::Batch),
                _ => None,
            },
        },
        2..=4 => Op::Pull { slot },
        5 => Op::Post { slot },
        6..=8 => Op::Finish {
            slot,
            staged_gen: g.bool(),
        },
        9 => Op::Fail { slot },
        10 => Op::Lose { slot },
        11 => Op::Die {
            shard,
            how: if g.bool() {
                Death::Wipe
            } else {
                Death::Quarantine
            },
        },
        12 => Op::Cancel { pick: g.choice(64) },
        13 => match g.choice(3) {
            0 => Op::Pause { shard },
            1 => Op::Unpause { shard },
            _ => Op::Restore { shard },
        },
        14 => match g.choice(3) {
            0 => Op::BeginRoll,
            _ => Op::EndRoll { accept: g.bool() },
        },
        _ => Op::ReplyError,
    }
}

/// The job spec of admission kind `kind`: a single, or a grid of up to
/// 6 cells (one more than a class queue holds).
fn job_spec(kind: usize, seed: u64) -> JobSpec {
    let base = RunSpec {
        insts: 1_000,
        warmup: 100,
        scale: 2048,
        seed,
        ..RunSpec::default()
    };
    if kind < 2 {
        return JobSpec::Run(RunSpec {
            workload: WORKLOADS[kind].into(),
            ..base
        });
    }
    let (workloads, controllers) = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)][kind - 2];
    JobSpec::Grid(GridSpec {
        workloads: WORKLOADS[..workloads].iter().map(|w| (*w).into()).collect(),
        controllers: CONTROLLERS[..controllers]
            .iter()
            .map(|c| (*c).into())
            .collect(),
        base,
    })
}

/// The fake shard's result document for a cell: tagged with the job,
/// the cell, its run and the config generation it was computed under.
fn doc(job: u64, cell: usize, spec: &RunSpec, generation: u64) -> Json {
    Json::obj([
        ("job", Json::from(job)),
        ("cell", Json::from(cell as u64)),
        ("workload", Json::from(spec.workload.as_str())),
        ("controller", Json::from(spec.controller.as_str())),
        ("seed", Json::from(spec.seed)),
        ("generation", Json::from(generation)),
    ])
}

/// A fake fleet around one core: slots, shards, rollouts, and what the
/// test saw happen.
struct Model {
    core: FleetCore,
    /// Slot `i` works for shard `i / SLOTS_PER_SHARD`.
    slots: Vec<Option<Held>>,
    next_remote: u64,
    next_seed: u64,
    /// The committed config generation.
    active: u64,
    /// The generation a roll in flight computes under, on the shards it
    /// reached.
    rolling_to: Option<u64>,
    next_generation: u64,
    rolled_back: HashSet<u64>,
    /// Every admitted job and its client.
    admitted: HashMap<u64, (JobSpec, usize)>,
    /// Settle publishes per job.
    settles: HashMap<u64, u32>,
    evicted: HashSet<u64>,
    /// The generations each cell's results were computed under.
    delivered: HashMap<(u64, usize), Vec<u64>>,
}

impl Model {
    fn new() -> Model {
        Model {
            core: FleetCore::new(SHARDS, QUEUE_CAP, MAX_IN_FLIGHT),
            slots: (0..SHARDS * SLOTS_PER_SHARD).map(|_| None).collect(),
            next_remote: 1,
            next_seed: 1,
            active: 0,
            rolling_to: None,
            next_generation: 1,
            rolled_back: HashSet::new(),
            admitted: HashMap::new(),
            settles: HashMap::new(),
            evicted: HashSet::new(),
            delivered: HashMap::new(),
        }
    }

    fn shard_of(slot: usize) -> usize {
        slot / SLOTS_PER_SHARD
    }

    /// Records what the core asked to publish.
    fn absorb(&mut self, publishes: impl IntoIterator<Item = Publish>) {
        for publish in publishes {
            assert!(
                self.admitted.contains_key(&publish.job),
                "publish for a job never admitted: {publish:?}"
            );
            if publish.settled {
                let settles = self.settles.entry(publish.job).or_default();
                *settles += 1;
                assert_eq!(*settles, 1, "job {} settled twice", publish.job);
            }
            if let Some(evicted) = publish.evicted {
                assert_eq!(
                    self.settles.get(&evicted),
                    Some(&1),
                    "job {evicted} evicted before it settled"
                );
                assert!(self.evicted.insert(evicted), "job {evicted} evicted twice");
            }
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Admit {
                kind,
                client,
                class,
            } => {
                let spec = job_spec(kind, self.next_seed);
                self.next_seed += 1;
                let class = class.unwrap_or(match spec {
                    JobSpec::Run(_) => Class::Interactive,
                    JobSpec::Grid(_) => Class::Batch,
                });
                let cells = spec.runs();
                let (interactive, batch) = self.core.queue_depths();
                let depth = match class {
                    Class::Interactive => interactive,
                    Class::Batch => batch,
                };
                let held = self.core.client_in_flight(CLIENTS[client]);
                let admitted = self.core.admit(spec.clone(), CLIENTS[client], class);
                let mut expected = (interactive, batch);
                match admitted {
                    Ok(id) => {
                        assert!(cells <= QUEUE_CAP.saturating_sub(depth));
                        assert!(held < MAX_IN_FLIGHT);
                        self.admitted.insert(id, (spec, client));
                        match class {
                            Class::Interactive => expected.0 += cells,
                            Class::Batch => expected.1 += cells,
                        }
                    }
                    Err(Refusal::TooLarge { cells: n, cap }) => {
                        assert_eq!((n, cap), (cells, QUEUE_CAP));
                        assert!(cells > QUEUE_CAP);
                    }
                    Err(Refusal::Quota { max }) => {
                        assert_eq!(max, MAX_IN_FLIGHT);
                        assert_eq!(held, MAX_IN_FLIGHT);
                    }
                    Err(Refusal::Full { cells: n, room }) => {
                        assert_eq!(n, cells);
                        assert_eq!(room, QUEUE_CAP.saturating_sub(depth));
                        assert!(cells > room);
                    }
                    Err(Refusal::Closed) => panic!("the core was never closed"),
                }
                // A job is queued whole or not at all.
                assert_eq!(self.core.queue_depths(), expected);
            }
            Op::Pull { slot } => {
                if self.slots[slot].is_some() {
                    return;
                }
                let shard = Self::shard_of(slot);
                let in_rotation = self.core.in_rotation(shard);
                let queued = self.core.queue_depths() != (0, 0);
                match self.core.next_cell(shard) {
                    Some(work) => {
                        assert!(in_rotation, "shard {shard} pulled out of rotation");
                        let job = self.core.job(work.item.job).expect("a pulled cell's job");
                        assert_eq!(job.cells[work.item.cell].spec, work.spec);
                        self.slots[slot] = Some(Held {
                            work,
                            posted: false,
                        });
                    }
                    None => assert!(!in_rotation || !queued, "a cell waits for a free slot"),
                }
            }
            Op::Post { slot } => self.post(slot),
            Op::Finish { slot, staged_gen } => {
                let Some(held) = &self.slots[slot] else {
                    return;
                };
                if !held.posted {
                    return self.post(slot);
                }
                let held = self.slots[slot].take().expect("held");
                let generation = match self.rolling_to {
                    Some(staged) if staged_gen => staged,
                    _ => self.active,
                };
                let item = held.work.item;
                self.delivered
                    .entry((item.job, item.cell))
                    .or_default()
                    .push(generation);
                let result = doc(item.job, item.cell, &held.work.spec, generation);
                let publish = self.core.settled(Self::shard_of(slot), item, Ok(result));
                self.absorb(publish);
            }
            Op::Fail { slot } => {
                let Some(held) = self.slots[slot].take() else {
                    return;
                };
                let publish = self.core.settled(
                    Self::shard_of(slot),
                    held.work.item,
                    Err("shard job failed".into()),
                );
                self.absorb(publish);
            }
            Op::Lose { slot } => {
                if let Some(held) = self.slots[slot].take() {
                    self.core.lost(Self::shard_of(slot), held.work.item);
                }
            }
            Op::Die { shard, how } => {
                if let Death::Quarantine = how {
                    self.core.set_quarantined(shard, true);
                }
                for slot in shard * SLOTS_PER_SHARD..(shard + 1) * SLOTS_PER_SHARD {
                    if let Some(held) = self.slots[slot].take() {
                        self.core.lost(shard, held.work.item);
                    }
                }
            }
            Op::Cancel { pick } => {
                let mut ids: Vec<u64> = self.admitted.keys().copied().collect();
                ids.sort_unstable();
                let Some(&id) = ids.get(pick % ids.len().max(1)) else {
                    return;
                };
                let before = self.core.job(id).map(|job| job.state);
                match self.core.cancel(id) {
                    Ok(publish) => {
                        assert_eq!(before, Some(JobState::Queued));
                        self.absorb([publish]);
                    }
                    Err(_) => assert_ne!(before, Some(JobState::Queued)),
                }
            }
            Op::Pause { shard } => self.core.pause(shard),
            Op::Unpause { shard } => self.core.unpause(shard),
            Op::Restore { shard } => self.core.set_quarantined(shard, false),
            Op::BeginRoll => {
                if self.rolling_to.is_none() {
                    self.rolling_to = Some(self.next_generation);
                    self.next_generation += 1;
                    self.core.begin_roll();
                }
            }
            Op::EndRoll { accept } => self.end_roll(accept),
            Op::ReplyError => self.core.reply_error(),
        }
    }

    /// The slot's shard accepts its cell's POST.
    fn post(&mut self, slot: usize) {
        let Some(held) = self.slots[slot].as_mut().filter(|held| !held.posted) else {
            return;
        };
        held.posted = true;
        let (shard, item, remote) = (Self::shard_of(slot), held.work.item, self.next_remote);
        self.next_remote += 1;
        self.core.posted(shard, item, remote);
        // An open single's event stream now proxies the shard job.
        if let Some(job) = self.core.job(item.job) {
            if let (JobSpec::Run(_), false) = (&job.spec, job.state.is_settled()) {
                assert_eq!(job.stream_target(), Some((shard, remote)));
            }
        }
    }

    fn end_roll(&mut self, accept: bool) {
        let Some(staged) = self.rolling_to.take() else {
            return;
        };
        let publishes = self.core.end_roll(accept);
        if accept {
            self.active = staged;
        } else {
            self.rolled_back.insert(staged);
        }
        self.absorb(publishes);
    }

    /// The invariants that hold after every step.
    fn check(&self) {
        let mut pending = [0usize; 2];
        let mut open_per_client = [0usize; CLIENTS.len()];
        for job in self.core.jobs() {
            let (spec, client) = self.admitted.get(&job.id).expect("an admitted job");
            assert_eq!(&job.spec, spec);
            assert_eq!(
                job.state.is_settled(),
                self.settles.get(&job.id) == Some(&1),
                "job {} is {:?} but settled {:?} times",
                job.id,
                job.state,
                self.settles.get(&job.id)
            );
            if job.state.is_settled() {
                if job.state == JobState::Done {
                    self.check_gather(job.id, spec, job.result.as_ref().expect("a result"));
                }
                continue;
            }
            open_per_client[*client] += 1;
            let queued = job
                .cells
                .iter()
                .filter(|c| c.state == CellState::Pending)
                .count();
            pending[usize::from(job.class == Class::Batch)] += queued;
        }
        let (interactive, batch) = self.core.queue_depths();
        assert_eq!(
            [interactive, batch],
            pending,
            "queue depths vs pending cells of open jobs"
        );
        for (client, open) in open_per_client.iter().enumerate() {
            assert_eq!(
                self.core.client_in_flight(CLIENTS[client]),
                *open,
                "quota of {}",
                CLIENTS[client]
            );
        }
        for shard in 0..SHARDS {
            let held = self.slots[shard * SLOTS_PER_SHARD..(shard + 1) * SLOTS_PER_SHARD]
                .iter()
                .filter(|s| s.is_some())
                .count();
            assert_eq!(
                self.core.in_flight(shard),
                held,
                "in flight on shard {shard}"
            );
        }
        for id in &self.evicted {
            assert!(
                self.core.job(*id).is_none(),
                "evicted job {id} still on the board"
            );
        }
    }

    /// A done job's result is the gather of one delivered, never
    /// rolled-back document per cell, in cell order.
    fn check_gather(&self, id: u64, spec: &JobSpec, result: &Json) {
        let docs: Vec<Json> = match spec {
            JobSpec::Run(_) => vec![result.clone()],
            JobSpec::Grid(_) => match result.get("results") {
                Some(Json::Arr(docs)) => docs.clone(),
                _ => panic!("grid result without results: {}", result.render()),
            },
        };
        let cells = spec.cells();
        assert_eq!(docs.len(), cells.len(), "job {id}: one document per cell");
        let mut expected = Vec::new();
        for (i, (got, run)) in docs.iter().zip(&cells).enumerate() {
            let generation = got
                .get("generation")
                .and_then(Json::as_u64)
                .expect("a tagged document");
            assert!(
                !self.rolled_back.contains(&generation),
                "job {id} cell {i} gathered a document of rolled-back generation {generation}"
            );
            assert!(
                self.delivered
                    .get(&(id, i))
                    .is_some_and(|gens| gens.contains(&generation)),
                "job {id} cell {i} gathered a document the shard never delivered"
            );
            expected.push(Some(doc(id, i, run, generation)));
        }
        assert_eq!(
            result.render(),
            spec.gather(expected).expect("gathers").render(),
            "job {id}: the gather of its cells in order"
        );
    }

    /// Ends any roll, returns every shard to rotation, and lets every slot
    /// run its cells to completion until the fleet is idle.
    fn drain(&mut self, accept: bool) {
        self.end_roll(accept);
        for shard in 0..SHARDS {
            self.core.unpause(shard);
            self.core.set_quarantined(shard, false);
        }
        for _ in 0..1_000 {
            let busy = self.slots.iter().any(Option::is_some);
            if !busy && self.core.queue_depths() == (0, 0) {
                return;
            }
            for slot in 0..self.slots.len() {
                self.apply(Op::Pull { slot });
                self.apply(Op::Post { slot });
                self.apply(Op::Finish {
                    slot,
                    staged_gen: false,
                });
                self.check();
            }
        }
        panic!("the fleet never went idle");
    }

    /// The invariants of an idle fleet.
    fn check_idle(&self) {
        for (id, (_, client)) in &self.admitted {
            assert_eq!(self.settles.get(id), Some(&1), "job {id} never settled");
            assert_eq!(self.core.client_in_flight(CLIENTS[*client]), 0);
        }
        for shard in 0..SHARDS {
            assert_eq!(self.core.in_flight(shard), 0);
        }
        assert_eq!(self.core.queue_depths(), (0, 0));
    }
}

#[test]
fn arbitrary_interleavings_keep_dispatch_consistent() {
    props("fleet_core_interleavings").run(|g| {
        let mut model = Model::new();
        let steps = g.usize_range(1, 120);
        for _ in 0..steps {
            let op = gen_op(g);
            g.note(format!("{op:?}"));
            model.apply(op);
            model.check();
        }
        model.drain(g.bool());
        model.check_idle();
    });
}
