//! The traced replay: one simulation rebuilt from the simulator's public
//! parts, with every call into a layer timed from this file.
//!
//! It replays `System::run` — warm-up, statistics reset, measured phase,
//! per-core lookahead buffers refilled together when the scheduled core
//! runs dry, the lagging-core-first merge order and the core timing model
//! — so every simulated statistic comes out the same and each layer runs
//! with the same batching (and cache locality) as in the real loop.
//! [`Replayed::matches`] checks that against a plain `System::run`;
//! per-layer numbers from a replay that does not match are flagged invalid
//! (`trace.faithful = 0`), because a change to `System` must not be
//! blocked by the benchmark.
//!
//! No span is added inside the program: the clock is read here, around
//! the calls, and the clock's own cost is calibrated with
//! [`calibrate_timer_ns`] and subtracted per timed interval.

use baryon_bench::spec::RunSpec;
use baryon_cache::{Hierarchy, HitLevel, PrivateAccess};
use baryon_core::baselines::{DiceCache, Hybrid2, MicroSector, OsPaging, SimpleCache, UnisonCache};
use baryon_core::controller::BaryonController;
use baryon_core::ctrl::{MemoryController, Request, ServeStats};
use baryon_core::metrics::RunResult;
use baryon_core::system::{AnyController, ControllerKind, SystemConfig};
use baryon_core::FamilyId;
use baryon_sim::wire::Writer;
use baryon_sim::Cycle;
use baryon_workloads::{by_name, MemoryContents, Op, Scale, TraceGen};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Steps buffered per core between refills — `System`'s lookahead depth.
/// It changes only the batching, never a simulated statistic.
const LOOKAHEAD: usize = 256;

/// Host time accumulated in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Raw nanoseconds between the clock reads around the layer's calls.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Timed intervals (each carries one clock cost; a call may need more
    /// than one, e.g. the LLC's `access_shared` plus `install_llc_lines`).
    pub intervals: u64,
}

impl Acc {
    fn call(&mut self, d: Duration) {
        self.calls += 1;
        self.interval(d);
    }

    fn interval(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.intervals += 1;
    }

    /// Nanoseconds with the calibrated clock cost removed (never negative).
    pub fn corrected_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - timer_ns * self.intervals as f64).max(0.0)
    }
}

/// Per-layer host time of one or more replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// `workloads`: `TraceGen::next_op`.
    pub next_op: Acc,
    /// `cache`: the private L1D/L2 (`Hierarchy::access_private`).
    pub private: Acc,
    /// `cache`: the shared LLC (`access_shared` + `install_llc_lines`).
    pub llc: Acc,
    /// `core`: `MemoryController::read`.
    pub read: Acc,
    /// `core`: `MemoryController::writeback`.
    pub writeback: Acc,
}

impl Layers {
    /// Timer-corrected nanoseconds across all layers.
    pub fn corrected_total_ns(&self, timer_ns: f64) -> f64 {
        [
            self.next_op,
            self.private,
            self.llc,
            self.read,
            self.writeback,
        ]
        .iter()
        .map(|a| a.corrected_ns(timer_ns))
        .sum()
    }
}

/// One subsystem's share of the checkpoint encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Part {
    /// Nanoseconds spent in the subsystem's `save_state`.
    pub ns: u64,
    /// Bytes it wrote.
    pub bytes: u64,
}

impl Part {
    fn time(&mut self, save: impl FnOnce(&mut Writer)) {
        let mut w = Writer::new();
        let t = Instant::now();
        save(&mut w);
        self.ns += t.elapsed().as_nanos() as u64;
        self.bytes += w.len() as u64;
    }
}

/// The per-subsystem split of the state a checkpoint encodes, summed over
/// `snapshots` replay-owned snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    /// The cache hierarchy.
    pub cache: Part,
    /// The memory controller.
    pub ctrl: Part,
    /// The memory-contents model.
    pub contents: Part,
    /// The per-core trace generators.
    pub gens: Part,
    /// Snapshots taken.
    pub snapshots: u64,
}

/// What a replay reproduces of `System::run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// Measured-phase cycles (max over cores).
    pub total_cycles: u64,
    /// Measured instructions (sum over cores).
    pub instructions: u64,
    /// Reads that reached the controller.
    pub llc_misses: u64,
    /// The controller's serve statistics.
    pub serve: ServeStats,
}

impl Replayed {
    /// Whether the replay reproduced the plain run exactly.
    pub fn matches(&self, plain: &RunResult) -> bool {
        self.total_cycles == plain.total_cycles
            && self.instructions == plain.instructions
            && self.llc_misses == plain.llc_misses
            && self.serve == plain.serve
    }
}

/// A run of one spec, assembled from public parts.
pub struct Replay {
    insts: u64,
    warmup: u64,
    cpi_nonmem: f64,
    mlp: usize,
    store_buffer: usize,
    hierarchy: Hierarchy,
    controller: AnyController,
    contents: MemoryContents,
    gens: Vec<Box<dyn TraceGen>>,
    /// Per-core trace operations with their private-cache outcome, not yet
    /// merged.
    lookahead: Vec<VecDeque<(Op, PrivateAccess)>>,
    core_time: Vec<Cycle>,
    core_insts: Vec<u64>,
    outstanding: Vec<Vec<Cycle>>,
    wb_queue: Vec<Vec<Cycle>>,
    llc_misses: u64,
    ops: u64,
}

/// The `AnyController` variant for a controller kind — the same mapping
/// `System::new` makes.
fn build_controller(kind: &ControllerKind, scale: Scale) -> AnyController {
    match kind {
        ControllerKind::Baryon(cfg) => {
            AnyController::Baryon(Box::new(BaryonController::new(cfg.clone())))
        }
        ControllerKind::Simple => AnyController::Simple(SimpleCache::new(scale)),
        ControllerKind::Unison => AnyController::Unison(UnisonCache::new(scale)),
        ControllerKind::Dice => AnyController::Dice(DiceCache::new(scale)),
        ControllerKind::Hybrid2 => AnyController::Hybrid2(Hybrid2::new(scale)),
        ControllerKind::MicroSector => AnyController::MicroSector(MicroSector::new(scale)),
        ControllerKind::OsPaging => AnyController::OsPaging(OsPaging::new(scale)),
    }
}

impl Replay {
    /// Builds the run `spec` describes, as `RunSpec::build_system` would.
    ///
    /// # Errors
    ///
    /// The spec's validation error.
    pub fn new(spec: &RunSpec) -> Result<Replay, String> {
        spec.validate()?;
        let scale = Scale {
            divisor: spec.scale,
        };
        let workload = by_name(&spec.workload, scale).ok_or("validated workload")?;
        let family = FamilyId::parse(&spec.controller).map_err(|e| format!("{e:?}"))?;
        let cfg = SystemConfig::with_controller(scale, family.kind(scale));
        let cores = cfg.hierarchy.cores;
        Ok(Replay {
            insts: spec.insts,
            warmup: spec.warmup,
            cpi_nonmem: cfg.cpi_nonmem,
            mlp: spec.mlp as usize,
            store_buffer: cfg.store_buffer,
            gens: (0..cores)
                .map(|c| workload.spawn_core(c, cores, spec.seed))
                .collect(),
            controller: build_controller(&cfg.controller, scale),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            contents: workload.contents(spec.seed),
            lookahead: vec![VecDeque::new(); cores],
            core_time: vec![0; cores],
            core_insts: vec![0; cores],
            outstanding: vec![Vec::new(); cores],
            wb_queue: vec![Vec::new(); cores],
            llc_misses: 0,
            ops: 0,
        })
    }

    /// Runs warm-up and the measured phase, timing every layer call into
    /// `layers`. With `split`, the subsystems' `save_state` calls are also
    /// timed every `every` operations — the cadence at which the serving
    /// path checkpoints — exactly where `RunSpec::execute_with_checkpoints`
    /// would snapshot; a run too short for one interval is snapshotted
    /// once at its end, as the checkpoint pass does.
    pub fn run(mut self, layers: &mut Layers, mut split: Option<(&mut Split, u64)>) -> Replayed {
        let snapshots_before = split.as_ref().map_or(0, |(s, _)| s.snapshots);
        if self.warmup > 0 {
            let targets: Vec<u64> = self.core_insts.iter().map(|i| i + self.warmup).collect();
            self.phase(&targets, layers, &mut split);
            self.hierarchy.reset_stats();
            self.controller.reset_stats();
            self.llc_misses = 0;
        }
        let start = self.core_time.clone();
        let insts_before: u64 = self.core_insts.iter().sum();
        let targets: Vec<u64> = self.core_insts.iter().map(|i| i + self.insts).collect();
        self.phase(&targets, layers, &mut split);
        if let Some((split, _)) = split {
            if split.snapshots == snapshots_before {
                self.snapshot(split);
            }
        }
        Replayed {
            total_cycles: self
                .core_time
                .iter()
                .zip(&start)
                .map(|(t, s)| t - s)
                .max()
                .unwrap_or(0),
            instructions: self.core_insts.iter().sum::<u64>() - insts_before,
            llc_misses: self.llc_misses,
            serve: self.controller.serve_stats(),
        }
    }

    /// The merge loop: the lagging unfinished core steps next, refilling
    /// every core's lookahead when its own runs dry.
    fn phase(
        &mut self,
        targets: &[u64],
        layers: &mut Layers,
        split: &mut Option<(&mut Split, u64)>,
    ) {
        let cores = self.core_time.len();
        while let Some(core) = (0..cores)
            .filter(|c| self.core_insts[*c] < targets[*c])
            .min_by_key(|c| self.core_time[*c])
        {
            if let Some((split, every)) = split {
                if self.ops > 0 && self.ops.is_multiple_of(*every) {
                    self.snapshot(split);
                }
            }
            if self.lookahead[core].is_empty() {
                self.refill(targets, layers);
            }
            let (op, private) = self.lookahead[core]
                .pop_front()
                .expect("refilled lookahead of an unfinished core");
            self.merge(core, op, &private, layers);
        }
    }

    /// Generates trace operations and runs them through each core's private
    /// caches until the phase target or the lookahead bound.
    fn refill(&mut self, targets: &[u64], l: &mut Layers) {
        for (core, buf) in self.lookahead.iter_mut().enumerate() {
            let mut insts =
                self.core_insts[core] + buf.iter().map(|(op, _)| op.instructions()).sum::<u64>();
            while insts < targets[core] && buf.len() < LOOKAHEAD {
                let t0 = Instant::now();
                let op = self.gens[core].next_op();
                let t1 = Instant::now();
                let private = self.hierarchy.access_private(core, op.addr, op.write);
                let t2 = Instant::now();
                l.next_op.call(t1 - t0);
                l.private.call(t2 - t1);
                insts += op.instructions();
                buf.push_back((op, private));
            }
        }
    }

    fn snapshot(&self, split: &mut Split) {
        split.cache.time(|w| self.hierarchy.save_state(w));
        split.ctrl.time(|w| self.controller.save_state(w));
        split.contents.time(|w| self.contents.save_state(w));
        split.gens.time(|w| {
            for g in &self.gens {
                g.save_state(w);
            }
        });
        split.snapshots += 1;
    }

    /// Applies one buffered step in merge order: content writes, the LLC,
    /// the controller, and `System`'s core timing model.
    fn merge(&mut self, core: usize, op: Op, private: &PrivateAccess, l: &mut Layers) {
        self.ops += 1;
        self.core_insts[core] += op.instructions();
        let mut t = self.core_time[core] + (op.gap as f64 * self.cpi_nonmem).ceil() as Cycle;
        if op.write {
            self.contents.write_line(op.addr);
        }
        let s = Instant::now();
        let access = self.hierarchy.access_shared(op.addr, op.write, private);
        l.llc.call(s.elapsed());
        for wb in &access.writebacks {
            t = self.writeback(core, t, *wb, l);
        }
        if access.level == HitLevel::Memory {
            self.llc_misses += 1;
            let s = Instant::now();
            let resp = self.controller.read(
                t + access.latency,
                Request {
                    addr: op.addr,
                    core,
                },
                &mut self.contents,
            );
            l.read.call(s.elapsed());
            if !resp.extra_lines.is_empty() {
                let s = Instant::now();
                let wbs = self.hierarchy.install_llc_lines(&resp.extra_lines);
                l.llc.interval(s.elapsed());
                for wb in wbs {
                    t = self.writeback(core, t, wb, l);
                }
            }
            if op.write {
                t += access.latency;
            } else if self.mlp <= 1 {
                t += access.latency + resp.latency;
            } else {
                let completion = t + access.latency + resp.latency;
                let window = &mut self.outstanding[core];
                window.retain(|c| *c > t);
                if window.len() >= self.mlp {
                    let oldest = window.iter().copied().min().expect("window full");
                    t = t.max(oldest);
                    window.retain(|c| *c > t);
                }
                window.push(completion);
                t += access.latency;
            }
        } else {
            t += access.latency;
        }
        self.core_time[core] = t.max(self.core_time[core] + 1);
    }

    /// A timed writeback, then the store-buffer stall it may cause.
    fn writeback(&mut self, core: usize, mut t: Cycle, addr: u64, l: &mut Layers) -> Cycle {
        let s = Instant::now();
        let done = self.controller.writeback(t, addr, &mut self.contents);
        l.writeback.call(s.elapsed());
        let cap = self.store_buffer.max(1);
        let q = &mut self.wb_queue[core];
        q.retain(|c| *c > t);
        if q.len() >= cap {
            let oldest = q.iter().copied().min().expect("buffer full");
            t = t.max(oldest);
            q.retain(|c| *c > t);
        }
        q.push(done);
        t
    }
}

/// The clock cost one timed interval carries: the gap between two
/// back-to-back clock reads around nothing, accumulated the way the replay
/// accumulates layer time. The median of several short trials is returned,
/// so calling it once per replay tracks drift in the host's speed.
pub fn calibrate_timer_ns() -> f64 {
    const INTERVALS: u64 = 20_000;
    let mut trials: Vec<f64> = (0..5)
        .map(|_| {
            let mut acc = Acc::default();
            for _ in 0..INTERVALS {
                let t0 = Instant::now();
                let t1 = Instant::now();
                acc.interval(t1 - t0);
            }
            acc.ns as f64 / acc.intervals as f64
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[trials.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: &str, controller: &str) -> RunSpec {
        RunSpec {
            workload: workload.to_owned(),
            controller: controller.to_owned(),
            insts: 3_000,
            warmup: 1_000,
            scale: 2048,
            seed: 5,
            ..RunSpec::default()
        }
    }

    #[test]
    fn replay_matches_system_run_for_every_family() {
        for family in FamilyId::ALL {
            let spec = small("ycsb-a", family.name());
            let plain = spec.execute().expect("plain run");
            let mut layers = Layers::default();
            let replayed = Replay::new(&spec).expect("replay").run(&mut layers, None);
            assert!(
                replayed.matches(&plain),
                "{family}: replay {replayed:?} diverged from cycles {} insts {} misses {} serve {:?}",
                plain.total_cycles,
                plain.instructions,
                plain.llc_misses,
                plain.serve
            );
            assert_eq!(layers.next_op.calls, layers.private.calls);
            assert!(
                layers.read.calls >= replayed.llc_misses,
                "warm-up reads count too"
            );
        }
    }

    #[test]
    fn split_snapshots_at_the_serving_cadence() {
        let spec = small("ycsb-a", "baryon");
        let mut split = Split::default();
        let replayed = Replay::new(&spec)
            .expect("replay")
            .run(&mut Layers::default(), Some((&mut split, 1_000)));
        assert!(replayed.matches(&spec.execute().expect("plain")));
        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        let mut cadence = 0;
        while !system.advance(1_000) {
            cadence += 1;
        }
        assert_eq!(split.snapshots, cadence);
        assert!(split.cache.bytes > 0 && split.ctrl.bytes > 0 && split.gens.bytes > 0);

        let mut end_only = Split::default();
        Replay::new(&spec)
            .expect("replay")
            .run(&mut Layers::default(), Some((&mut end_only, u64::MAX)));
        assert_eq!(
            end_only.snapshots, 1,
            "a short job is snapshotted at its end"
        );
    }

    #[test]
    fn timer_calibration_is_positive_and_small() {
        let ns = calibrate_timer_ns();
        assert!(ns > 0.0 && ns < 1_000.0, "clock read costs {ns} ns");
    }
}
