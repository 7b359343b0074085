//! The end-to-end system driver: trace generators -> cache hierarchy ->
//! memory controller, with a simple multi-core timing model.
//!
//! Cores are trace-driven with a fixed non-memory CPI; loads block the
//! issuing core while stores are posted (they retire through the cache
//! hierarchy and surface at the memory controller as dirty writebacks).
//! Cores are interleaved in timestamp order so that device-level contention
//! (banks, channel buses) is shared realistically.
//!
//! # One merge loop
//!
//! A run is a single loop: the lagging unfinished core draws its next op
//! from its trace generator and sends it through the whole hierarchy and
//! the controller before any other core moves. Nothing is generated ahead
//! of the loop, so a checkpoint holds only the generators, caches,
//! controller and timing state, and a chunked or restored run takes the
//! same steps as one uninterrupted run.

use crate::baselines::{DiceCache, Hybrid2, MicroSector, OsPaging, SimpleCache, UnisonCache};
use crate::config::BaryonConfig;
use crate::controller::BaryonController;
use crate::ctrl::{MemoryController, Request, ServeStats};
use crate::metrics::RunResult;
use baryon_cache::{Hierarchy, HierarchyConfig, HitLevel};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire::{Reader, WireError, Writer};
use baryon_sim::Cycle;
use baryon_workloads::{MemoryContents, Scale, TraceGen, Workload};

/// Which memory controller a system runs.
// Constructed once per run; the config payload is not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerKind {
    /// The Baryon controller with the given configuration.
    Baryon(BaryonConfig),
    /// Simple 2 kB DRAM cache.
    Simple,
    /// Unison Cache.
    Unison,
    /// DICE compressed DRAM cache.
    Dice,
    /// Hybrid2 flat-mode hybrid memory.
    Hybrid2,
    /// Micro-sector cache (Baryon's closest sub-blocking prior, §V).
    MicroSector,
    /// OS-based 4 kB page migration (the §II-A software design point).
    OsPaging,
}

/// One of the concrete controllers (static dispatch with an accessor for
/// Baryon-specific instrumentation).
#[derive(Debug)]
pub enum AnyController {
    /// Baryon.
    Baryon(Box<BaryonController>),
    /// Simple DRAM cache.
    Simple(SimpleCache),
    /// Unison Cache.
    Unison(UnisonCache),
    /// DICE.
    Dice(DiceCache),
    /// Hybrid2.
    Hybrid2(Hybrid2),
    /// Micro-sector cache.
    MicroSector(MicroSector),
    /// OS page migration.
    OsPaging(OsPaging),
}

macro_rules! delegate {
    ($self:ident, $c:ident => $body:expr) => {
        match $self {
            AnyController::Baryon($c) => $body,
            AnyController::Simple($c) => $body,
            AnyController::Unison($c) => $body,
            AnyController::Dice($c) => $body,
            AnyController::Hybrid2($c) => $body,
            AnyController::MicroSector($c) => $body,
            AnyController::OsPaging($c) => $body,
        }
    };
}

impl MemoryController for AnyController {
    fn read(
        &mut self,
        now: Cycle,
        req: Request,
        mem: &mut MemoryContents,
    ) -> crate::ctrl::Response {
        delegate!(self, c => c.read(now, req, mem))
    }

    fn writeback(&mut self, now: Cycle, addr: u64, mem: &mut MemoryContents) -> Cycle {
        delegate!(self, c => c.writeback(now, addr, mem))
    }

    fn serve_stats(&self) -> ServeStats {
        delegate!(self, c => c.serve_stats())
    }

    fn export(&self, reg: &mut Registry) {
        delegate!(self, c => c.export(reg))
    }

    fn reset_stats(&mut self) {
        delegate!(self, c => c.reset_stats())
    }

    fn name(&self) -> &str {
        delegate!(self, c => c.name())
    }
}

impl AnyController {
    /// The Baryon controller, if that is what this system runs.
    pub fn as_baryon(&self) -> Option<&BaryonController> {
        match self {
            AnyController::Baryon(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable Baryon access (to enable phase tracking).
    pub fn as_baryon_mut(&mut self) -> Option<&mut BaryonController> {
        match self {
            AnyController::Baryon(b) => Some(b),
            _ => None,
        }
    }

    fn variant_tag(&self) -> u8 {
        match self {
            AnyController::Baryon(_) => 0,
            AnyController::Simple(_) => 1,
            AnyController::Unison(_) => 2,
            AnyController::Dice(_) => 3,
            AnyController::Hybrid2(_) => 4,
            AnyController::MicroSector(_) => 5,
            AnyController::OsPaging(_) => 6,
        }
    }

    /// Serializes the controller's mutable state (prefixed with a variant
    /// tag so a checkpoint cannot be overlaid onto a different kind).
    pub fn save_state(&self, w: &mut Writer) {
        w.u8(self.variant_tag());
        delegate!(self, c => c.save_state(w))
    }

    /// Overlays checkpointed state onto this freshly constructed
    /// controller.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] if the checkpoint was taken with a
    /// different controller kind, and propagates truncation/geometry
    /// errors from the inner controller.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let tag = r.u8()?;
        if tag != self.variant_tag() {
            return Err(WireError::BadTag(tag));
        }
        delegate!(self, c => c.load_state(r))
    }
}

/// System-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// The memory controller under test.
    pub controller: ControllerKind,
    /// Capacity scale shared with the workload registry.
    pub scale: Scale,
    /// Cycles per non-memory instruction (4-wide cores: 0.25).
    pub cpi_nonmem: f64,
    /// Warm-up instructions per core before measurement starts.
    pub warmup_insts: u64,
    /// Outstanding read misses a core may overlap (memory-level
    /// parallelism). 1 models a blocking core (the default used by all
    /// recorded experiments); OoO cores overlap several misses.
    pub mlp: usize,
    /// Outstanding posted writebacks a core may have before it stalls
    /// (write bandwidth back-pressure). Without a bound, pure-store
    /// workloads would never feel the memory system at all.
    pub store_buffer: usize,
    /// Enables wall-clock span telemetry (access-flow and phase timings).
    /// Off by default: disabled runs never read the host clock, so golden
    /// results stay bit-identical.
    pub telemetry: bool,
}

impl SystemConfig {
    /// Baryon in the paper's default cache mode.
    pub fn baryon_cache_mode(scale: Scale) -> Self {
        Self::with_controller(
            scale,
            ControllerKind::Baryon(BaryonConfig::default_cache_mode(scale)),
        )
    }

    /// Baryon-FA in flat mode (Fig 10).
    pub fn baryon_flat_fa(scale: Scale) -> Self {
        Self::with_controller(
            scale,
            ControllerKind::Baryon(BaryonConfig::default_flat_fa(scale)),
        )
    }

    /// A system around any controller kind, with scaled-hierarchy defaults.
    pub fn with_controller(scale: Scale, controller: ControllerKind) -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::table1_scaled(scale.divisor),
            controller,
            scale,
            cpi_nonmem: 0.25,
            warmup_insts: 30_000,
            mlp: 1,
            store_buffer: 32,
            telemetry: false,
        }
    }

    fn build_controller(&self) -> AnyController {
        match &self.controller {
            ControllerKind::Baryon(cfg) => {
                AnyController::Baryon(Box::new(BaryonController::new(cfg.clone())))
            }
            ControllerKind::Simple => AnyController::Simple(SimpleCache::new(self.scale)),
            ControllerKind::Unison => AnyController::Unison(UnisonCache::new(self.scale)),
            ControllerKind::Dice => AnyController::Dice(DiceCache::new(self.scale)),
            ControllerKind::Hybrid2 => AnyController::Hybrid2(Hybrid2::new(self.scale)),
            ControllerKind::MicroSector => AnyController::MicroSector(MicroSector::new(self.scale)),
            ControllerKind::OsPaging => AnyController::OsPaging(OsPaging::new(self.scale)),
        }
    }
}

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Progress of an incremental run ([`System::begin`] /
/// [`System::advance`] / [`System::finish`]): which phase the run is in,
/// the per-core instruction targets of that phase, and the measurement
/// baselines captured at the warm-up/measure boundary. Serialized inside
/// checkpoints so a restored system resumes mid-phase.
#[derive(Debug, Clone)]
struct RunCursor {
    phase: u8,
    /// Measured instructions per core (fixed at [`System::begin`]).
    measure_insts: u64,
    /// Per-core cumulative instruction targets of the current phase.
    targets: Vec<u64>,
    /// Per-core cycle counts when measurement started.
    start: Vec<Cycle>,
    /// Total instructions executed when measurement started.
    insts_before: u64,
    /// Operations (trace steps) executed since [`System::begin`] — the
    /// unit the periodic checkpointer counts.
    ops: u64,
}

/// Which phase an incremental run is in (see [`System::run_progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Executing warm-up instructions; measurement has not started.
    Warmup,
    /// Executing measured instructions.
    Measure,
    /// The run is complete; [`System::finish`] will succeed.
    Done,
}

impl RunPhase {
    /// The wire name of the phase (`"warmup"`, `"measure"`, `"done"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RunPhase::Warmup => "warmup",
            RunPhase::Measure => "measure",
            RunPhase::Done => "done",
        }
    }
}

/// A read-only snapshot of an in-progress run — the progress event hook
/// on the run cursor. Streaming endpoints serialize these between
/// [`System::advance`] chunks; `ops` is strictly monotonic over a run, so
/// consumers can order events without wall clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Current phase.
    pub phase: RunPhase,
    /// Trace operations executed since [`System::begin`] (monotonic).
    pub ops: u64,
    /// Cumulative instructions executed toward `insts_target`.
    pub insts_done: u64,
    /// Cumulative instruction target of the current phase.
    pub insts_target: u64,
    /// Simulated cycles elapsed in the measure phase so far (0 during
    /// warm-up) — the partial-telemetry figure streamed to clients.
    pub cycles: u64,
}

/// The simulated 16-core system.
pub struct System {
    cfg: SystemConfig,
    workload_name: String,
    hierarchy: Hierarchy,
    controller: AnyController,
    contents: MemoryContents,
    gens: Vec<Box<dyn TraceGen>>,
    core_time: Vec<Cycle>,
    core_insts: Vec<u64>,
    /// Per-core completion times of in-flight read misses (MLP window).
    outstanding: Vec<Vec<Cycle>>,
    /// Per-core completion times of posted writebacks (store buffer).
    wb_queue: Vec<Vec<Cycle>>,
    llc_misses: u64,
    read_latency: baryon_sim::histogram::Histogram,
    /// In-progress incremental run, if any.
    cursor: Option<RunCursor>,
    /// System-level spans (warm-up / measure phases); live only when
    /// `SystemConfig::telemetry` is set.
    telemetry: Registry,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload_name)
            .field("controller", &self.controller.name())
            .field("cores", &self.core_time.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `workload` with the given seed.
    pub fn new(cfg: SystemConfig, workload: &Workload, seed: u64) -> Self {
        let cores = cfg.hierarchy.cores;
        let gens = (0..cores)
            .map(|c| workload.spawn_core(c, cores, seed))
            .collect();
        let mut controller = cfg.build_controller();
        let mut telemetry = Registry::new();
        if cfg.telemetry {
            telemetry.enable_spans();
            if let Some(b) = controller.as_baryon_mut() {
                b.enable_telemetry_spans();
            }
        }
        System {
            hierarchy: Hierarchy::new(cfg.hierarchy),
            controller,
            contents: workload.contents(seed),
            gens,
            core_time: vec![0; cores],
            core_insts: vec![0; cores],
            outstanding: vec![Vec::new(); cores],
            wb_queue: vec![Vec::new(); cores],
            llc_misses: 0,
            read_latency: baryon_sim::histogram::Histogram::new(),
            cursor: None,
            telemetry,
            workload_name: workload.name.to_owned(),
            cfg,
        }
    }

    /// The controller (for counters and Baryon-specific instrumentation).
    pub fn controller(&self) -> &AnyController {
        &self.controller
    }

    /// Mutable controller access.
    pub fn controller_mut(&mut self) -> &mut AnyController {
        &mut self.controller
    }

    /// Runs warm-up (if configured) followed by `insts_per_core` measured
    /// instructions per core, and returns the measured results.
    pub fn run(&mut self, insts_per_core: u64) -> RunResult {
        self.begin(insts_per_core);
        self.advance(u64::MAX);
        self.finish()
    }

    /// Starts an incremental run: warm-up (if configured) followed by
    /// `insts_per_core` measured instructions per core. Drive it with
    /// [`System::advance`] and collect results with [`System::finish`].
    ///
    /// # Panics
    ///
    /// Panics if a run is already in progress.
    pub fn begin(&mut self, insts_per_core: u64) {
        assert!(self.cursor.is_none(), "a run is already in progress");
        let cursor = if self.cfg.warmup_insts > 0 {
            RunCursor {
                phase: PHASE_WARMUP,
                measure_insts: insts_per_core,
                targets: self
                    .core_insts
                    .iter()
                    .map(|i| i + self.cfg.warmup_insts)
                    .collect(),
                start: Vec::new(),
                insts_before: 0,
                ops: 0,
            }
        } else {
            RunCursor {
                phase: PHASE_MEASURE,
                measure_insts: insts_per_core,
                targets: self.core_insts.iter().map(|i| i + insts_per_core).collect(),
                start: self.core_time.clone(),
                insts_before: self.core_insts.iter().sum(),
                ops: 0,
            }
        };
        self.cursor = Some(cursor);
    }

    /// Executes up to `max_ops` trace operations of the in-progress run,
    /// crossing the warm-up/measure boundary as needed. Returns `true`
    /// once the run is complete (then call [`System::finish`]).
    ///
    /// # Panics
    ///
    /// Panics if no run is in progress.
    pub fn advance(&mut self, max_ops: u64) -> bool {
        assert!(self.cursor.is_some(), "no run in progress");
        let mut budget = max_ops;
        loop {
            let phase = self.cursor.as_ref().expect("cursor").phase;
            match phase {
                PHASE_WARMUP => {
                    let targets = self.cursor.as_ref().expect("cursor").targets.clone();
                    // Phase spans are coarse events: always sample.
                    let t = self.telemetry.phase_timer();
                    let (done, ops) = self.run_phase_chunk(&targets, &mut budget);
                    self.telemetry.record_span("sim.span.warmup", t);
                    self.cursor.as_mut().expect("cursor").ops += ops;
                    if !done {
                        return false;
                    }
                    self.reset_measurement();
                    let start = self.core_time.clone();
                    let insts_before = self.core_insts.iter().sum();
                    let measure_insts = self.cursor.as_ref().expect("cursor").measure_insts;
                    let targets = self.core_insts.iter().map(|i| i + measure_insts).collect();
                    let cur = self.cursor.as_mut().expect("cursor");
                    cur.phase = PHASE_MEASURE;
                    cur.targets = targets;
                    cur.start = start;
                    cur.insts_before = insts_before;
                }
                PHASE_MEASURE => {
                    let targets = self.cursor.as_ref().expect("cursor").targets.clone();
                    let t = self.telemetry.phase_timer();
                    let (done, ops) = self.run_phase_chunk(&targets, &mut budget);
                    self.telemetry.record_span("sim.span.measure", t);
                    let cur = self.cursor.as_mut().expect("cursor");
                    cur.ops += ops;
                    if !done {
                        return false;
                    }
                    cur.phase = PHASE_DONE;
                    return true;
                }
                _ => return true,
            }
        }
    }

    /// Operations executed so far by the in-progress run (0 if none).
    pub fn run_ops(&self) -> u64 {
        self.cursor.as_ref().map_or(0, |c| c.ops)
    }

    /// A snapshot of the in-progress run's cursor — the progress event
    /// hook that feeds streaming status endpoints. Returns `None` when no
    /// run is in progress. Reading progress never perturbs the run.
    pub fn run_progress(&self) -> Option<RunProgress> {
        let cur = self.cursor.as_ref()?;
        let insts: u64 = self.core_insts.iter().sum();
        let target: u64 = cur.targets.iter().sum();
        let cycles = match cur.phase {
            PHASE_MEASURE | PHASE_DONE => self
                .core_time
                .iter()
                .zip(&cur.start)
                .map(|(t, s)| t - s)
                .max()
                .unwrap_or(0),
            _ => 0,
        };
        Some(RunProgress {
            phase: match cur.phase {
                PHASE_WARMUP => RunPhase::Warmup,
                PHASE_MEASURE => RunPhase::Measure,
                _ => RunPhase::Done,
            },
            ops: cur.ops,
            // Both counts are cumulative since system construction, so
            // `insts_done` is monotonic across the whole run; the target
            // steps up once at the warm-up/measure boundary.
            insts_done: insts.min(target),
            insts_target: target,
            cycles,
        })
    }

    /// True while a [`System::begin`] run has not been [`System::finish`]ed.
    pub fn run_in_progress(&self) -> bool {
        self.cursor.is_some()
    }

    /// Assembles the results of a completed incremental run.
    ///
    /// # Panics
    ///
    /// Panics if no run is in progress or the run has not completed.
    pub fn finish(&mut self) -> RunResult {
        let cur = self.cursor.take().expect("no run in progress");
        assert!(
            cur.phase == PHASE_DONE,
            "run not complete: keep calling advance()"
        );
        let cycles = self
            .core_time
            .iter()
            .zip(&cur.start)
            .map(|(t, s)| t - s)
            .max()
            .unwrap_or(0);
        let instructions = self.core_insts.iter().sum::<u64>() - cur.insts_before;
        let serve = self.controller.serve_stats();
        let mut reg = Registry::new();
        self.hierarchy.export(&mut reg);
        let mut ctrl_reg = Registry::new();
        self.controller.export(&mut ctrl_reg);
        let mut serve_reg = Registry::new();
        serve.export(&mut serve_reg);
        ctrl_reg.absorb("serve", &serve_reg);
        reg.absorb("ctrl", &ctrl_reg);
        reg.set_counter("sim.cycles", cycles);
        reg.set_counter("sim.instructions", instructions);
        reg.set_counter("sim.llc_misses", self.llc_misses);
        reg.observe_histogram("sim.read_latency", &self.read_latency);
        reg.merge(&self.telemetry);
        RunResult {
            controller: self.controller.name().to_owned(),
            workload: self.workload_name.clone(),
            total_cycles: cycles,
            instructions,
            llc_misses: self.llc_misses,
            serve,
            read_latency: self.read_latency.clone(),
            telemetry: reg,
            config_generation: 0,
        }
    }

    fn reset_measurement(&mut self) {
        self.hierarchy.reset_stats();
        self.controller.reset_stats();
        self.llc_misses = 0;
        self.read_latency = baryon_sim::histogram::Histogram::new();
    }

    /// Advances cores toward the per-core cumulative instruction
    /// `targets`, interleaving cores in timestamp order and spending at
    /// most `budget` operations. Returns whether every core reached its
    /// target, plus the operations executed.
    fn run_phase_chunk(&mut self, targets: &[u64], budget: &mut u64) -> (bool, u64) {
        let cores = self.core_time.len();
        let mut ops = 0;
        loop {
            // The lagging unfinished core goes next.
            let Some(core) = (0..cores)
                .filter(|c| self.core_insts[*c] < targets[*c])
                .min_by_key(|c| self.core_time[*c])
            else {
                return (true, ops);
            };
            if *budget == 0 {
                return (false, ops);
            }
            self.step(core);
            ops += 1;
            *budget -= 1;
        }
    }

    /// Runs `core`'s next trace op: memory-contents writes, the cache
    /// hierarchy, controller effects, statistics and timing.
    fn step(&mut self, core: usize) {
        let op = self.gens[core].next_op();
        self.core_insts[core] += op.instructions();
        let mut t = self.core_time[core] + (op.gap as f64 * self.cfg.cpi_nonmem).ceil() as Cycle;
        if op.write {
            // The store's value changes memory contents now; the data moves
            // to memory later via the write-back path.
            self.contents.write_line(op.addr);
        }
        let access = self.hierarchy.access(core, op.addr, op.write);
        for wb in &access.writebacks {
            let done = self.controller.writeback(t, *wb, &mut self.contents);
            t = self.post_writeback(core, t, done);
        }
        if access.level == HitLevel::Memory {
            self.llc_misses += 1;
            let resp = self.controller.read(
                t + access.latency,
                Request {
                    addr: op.addr,
                    core,
                },
                &mut self.contents,
            );
            if !op.write {
                self.read_latency.record(resp.latency);
            }
            if !resp.extra_lines.is_empty() {
                let wbs = self.hierarchy.install_llc_lines(&resp.extra_lines);
                for wb in wbs {
                    let done = self.controller.writeback(t, wb, &mut self.contents);
                    t = self.post_writeback(core, t, done);
                }
            }
            if op.write {
                // Stores retire into the store buffer: the miss latency is
                // overlapped, only the on-chip path stalls the core.
                t += access.latency;
            } else if self.cfg.mlp <= 1 {
                t += access.latency + resp.latency;
            } else {
                // Overlap up to `mlp` read misses: the core only stalls
                // when the MLP window is full, waiting for the oldest
                // in-flight miss to complete.
                let completion = t + access.latency + resp.latency;
                let window = &mut self.outstanding[core];
                window.retain(|c| *c > t);
                if window.len() >= self.cfg.mlp {
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
        // A memory instruction costs at least one issue cycle.
        self.core_time[core] = t.max(self.core_time[core] + 1);
    }

    /// Tracks a posted writeback completing at `done`; returns the (possibly
    /// stalled) core time: the store buffer holds `store_buffer` entries and
    /// a full buffer blocks until the oldest drains.
    fn post_writeback(&mut self, core: usize, mut t: Cycle, done: Cycle) -> Cycle {
        let cap = self.cfg.store_buffer.max(1);
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

    /// Serializes the complete mutable system state — run cursor, cache
    /// hierarchy, controller, memory contents, trace-generator RNGs,
    /// per-core timing, and telemetry — for crash-consistent
    /// checkpointing. Configuration is not serialized: the restorer
    /// rebuilds an identical [`System`] via [`System::new`] first.
    pub fn save_state(&self, w: &mut Writer) {
        w.opt(self.cursor.is_some());
        if let Some(cur) = &self.cursor {
            w.u8(cur.phase);
            w.u64(cur.measure_insts);
            w.seq(cur.targets.len());
            for t in &cur.targets {
                w.u64(*t);
            }
            w.seq(cur.start.len());
            for s in &cur.start {
                w.u64(*s);
            }
            w.u64(cur.insts_before);
            w.u64(cur.ops);
        }
        self.hierarchy.save_state(w);
        self.controller.save_state(w);
        self.contents.save_state(w);
        w.seq(self.gens.len());
        for g in &self.gens {
            g.save_state(w);
        }
        w.seq(self.core_time.len());
        for t in &self.core_time {
            w.u64(*t);
        }
        w.seq(self.core_insts.len());
        for i in &self.core_insts {
            w.u64(*i);
        }
        save_queues(w, &self.outstanding);
        save_queues(w, &self.wb_queue);
        w.u64(self.llc_misses);
        self.read_latency.save_state(w);
        self.telemetry.save_state(w);
    }

    /// Overlays checkpointed state onto this freshly constructed system.
    /// The system must have been built with the same configuration,
    /// workload, and seed as the checkpointed one; continuing the run
    /// afterwards is bit-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a truncated or corrupt payload, or when
    /// the state shape does not match this system (wrong controller kind,
    /// core count, or geometry).
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let cores = self.core_time.len();
        self.cursor = if r.opt()? {
            let phase = r.u8()?;
            if phase > PHASE_DONE {
                return Err(WireError::BadTag(phase));
            }
            let measure_insts = r.u64()?;
            let n = r.seq()?;
            if n != cores {
                return Err(WireError::BadLength(n as u64));
            }
            let targets = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
            let n = r.seq()?;
            if n != cores && n != 0 {
                return Err(WireError::BadLength(n as u64));
            }
            let start = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
            Some(RunCursor {
                phase,
                measure_insts,
                targets,
                start,
                insts_before: r.u64()?,
                ops: r.u64()?,
            })
        } else {
            None
        };
        self.hierarchy.load_state(r)?;
        self.controller.load_state(r)?;
        self.contents.load_state(r)?;
        let n = r.seq()?;
        if n != self.gens.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for g in &mut self.gens {
            g.load_state(r)?;
        }
        load_u64_exact(r, &mut self.core_time)?;
        load_u64_exact(r, &mut self.core_insts)?;
        self.outstanding = load_queues(r, cores)?;
        self.wb_queue = load_queues(r, cores)?;
        self.llc_misses = r.u64()?;
        self.read_latency = baryon_sim::histogram::Histogram::load_state(r)?;
        self.telemetry = Registry::load_state(r)?;
        Ok(())
    }
}

fn save_queues(w: &mut Writer, queues: &[Vec<Cycle>]) {
    w.seq(queues.len());
    for q in queues {
        w.seq(q.len());
        for c in q {
            w.u64(*c);
        }
    }
}

fn load_queues(r: &mut Reader<'_>, cores: usize) -> Result<Vec<Vec<Cycle>>, WireError> {
    let n = r.seq()?;
    if n != cores {
        return Err(WireError::BadLength(n as u64));
    }
    (0..n)
        .map(|_| (0..r.seq()?).map(|_| r.u64()).collect())
        .collect()
}

fn load_u64_exact(r: &mut Reader<'_>, out: &mut [u64]) -> Result<(), WireError> {
    let n = r.seq()?;
    if n != out.len() {
        return Err(WireError::BadLength(n as u64));
    }
    for v in out {
        *v = r.u64()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_workloads::by_name;

    fn scale() -> Scale {
        Scale { divisor: 2048 }
    }

    fn run(kind: ControllerKind, workload: &str, insts: u64) -> RunResult {
        let w = by_name(workload, scale()).expect("workload");
        let mut cfg = SystemConfig::with_controller(scale(), kind);
        cfg.warmup_insts = 5_000;
        System::new(cfg, &w, 7).run(insts)
    }

    #[test]
    fn all_controllers_run_end_to_end() {
        for kind in [
            ControllerKind::Baryon(BaryonConfig::default_cache_mode(scale())),
            ControllerKind::Simple,
            ControllerKind::Unison,
            ControllerKind::Dice,
            ControllerKind::Hybrid2,
        ] {
            let r = run(kind.clone(), "505.mcf_r", 20_000);
            assert!(r.total_cycles > 0, "{kind:?} produced no cycles");
            assert!(r.instructions >= 20_000 * 16);
            assert!(r.ipc() > 0.0);
            let s = &r.serve;
            assert!(s.fast_serve_rate() >= 0.0 && s.fast_serve_rate() <= 1.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(ControllerKind::Simple, "519.lbm_r", 10_000);
        let b = run(ControllerKind::Simple, "519.lbm_r", 10_000);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.serve, b.serve);
    }

    #[test]
    fn flat_fa_baryon_runs() {
        let r = run(
            ControllerKind::Baryon(BaryonConfig::default_flat_fa(scale())),
            "505.mcf_r",
            20_000,
        );
        assert!(r.total_cycles > 0);
        assert_eq!(r.controller, "baryon-fa");
    }

    #[test]
    fn traffic_conservation() {
        // Controller traffic must be at least the useful bytes served from
        // each device class (sanity of the accounting).
        let r = run(ControllerKind::Simple, "505.mcf_r", 20_000);
        assert!(r.serve.fast_bytes + r.serve.slow_bytes >= 64 * r.serve.reads);
    }

    #[test]
    fn mlp_overlap_speeds_latency_bound_reads_up() {
        // A latency-bound scenario: the footprint fits in fast memory, so
        // after warm-up every read is a fixed-latency fast hit that an MLP
        // window can overlap (bandwidth-bound runs are a wash by design).
        let mut w = by_name("505.mcf_r", scale()).expect("workload");
        w.footprint = 1 << 20; // 1 MB vs 2 MB fast memory
        let mut blocking = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        blocking.warmup_insts = 20_000;
        let mut overlapped = blocking.clone();
        overlapped.mlp = 8;
        let b = System::new(blocking, &w, 7).run(15_000);
        let o = System::new(overlapped, &w, 7).run(15_000);
        assert!(
            o.total_cycles < b.total_cycles,
            "overlapping 8 hits must beat a blocking core ({} vs {})",
            o.total_cycles,
            b.total_cycles
        );
    }

    #[test]
    fn warmup_resets_measured_stats() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let mut with_warmup = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        with_warmup.warmup_insts = 10_000;
        let r = System::new(with_warmup, &w, 3).run(10_000);
        // The measured instruction count must reflect only the measured
        // phase (16 cores x 10k, +- the per-op rounding of the last op).
        let per_core = r.instructions / 16;
        assert!(
            (10_000..11_000).contains(&per_core),
            "measured {per_core} instructions per core"
        );
    }

    #[test]
    fn store_buffer_throttles_pure_write_streams() {
        // ycsb-load writes every line; with a tiny store buffer the cores
        // must run slower than with a large one.
        let w = by_name("ycsb-load", scale()).expect("workload");
        let mut tight = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        tight.warmup_insts = 2_000;
        tight.store_buffer = 1;
        let mut roomy = tight.clone();
        roomy.store_buffer = 1024;
        let t = System::new(tight, &w, 5).run(10_000);
        let r = System::new(roomy, &w, 5).run(10_000);
        assert!(
            t.total_cycles > r.total_cycles,
            "a 1-entry store buffer must be slower ({} vs {})",
            t.total_cycles,
            r.total_cycles
        );
    }

    #[test]
    fn read_latency_histogram_populates() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let mut cfg = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        cfg.warmup_insts = 1_000;
        let r = System::new(cfg, &w, 3).run(10_000);
        assert!(r.read_latency.count() > 0, "misses must record latencies");
        assert!(r.read_latency.percentile(99.0) >= r.read_latency.percentile(50.0));
        // Loads are a strict subset of LLC misses (stores miss too but are
        // posted and unsampled).
        assert!(r.read_latency.count() <= r.llc_misses);
    }

    #[test]
    fn incremental_run_matches_one_shot() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let mut cfg = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        cfg.warmup_insts = 5_000;
        let golden = System::new(cfg.clone(), &w, 7).run(10_000);
        let mut sys = System::new(cfg, &w, 7);
        sys.begin(10_000);
        while !sys.advance(1_000) {}
        let chunked = sys.finish();
        assert_eq!(golden.total_cycles, chunked.total_cycles);
        assert_eq!(golden.serve, chunked.serve);
        assert_eq!(
            golden.telemetry.snapshot(),
            chunked.telemetry.snapshot(),
            "chunked execution must be invisible in telemetry"
        );
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let mut cfg = SystemConfig::baryon_cache_mode(scale());
        cfg.warmup_insts = 5_000;
        let golden = System::new(cfg.clone(), &w, 7).run(10_000);

        let mut sys = System::new(cfg.clone(), &w, 7);
        sys.begin(10_000);
        let done = sys.advance(8_000); // stop mid-run
        assert!(!done && sys.run_in_progress());
        let mut wr = Writer::new();
        sys.save_state(&mut wr);
        let bytes = wr.into_bytes();
        drop(sys); // the original "crashes"

        let mut restored = System::new(cfg, &w, 7);
        let mut rd = Reader::new(&bytes);
        restored.load_state(&mut rd).expect("well-formed state");
        rd.finish().expect("no trailing bytes");
        assert_eq!(restored.run_ops(), 8_000);
        restored.advance(u64::MAX);
        let resumed = restored.finish();
        assert_eq!(golden.total_cycles, resumed.total_cycles);
        assert_eq!(golden.llc_misses, resumed.llc_misses);
        assert_eq!(golden.serve, resumed.serve);
        assert_eq!(golden.telemetry.snapshot(), resumed.telemetry.snapshot());
    }

    #[test]
    fn load_state_rejects_wrong_controller() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let cfg = SystemConfig::with_controller(scale(), ControllerKind::Simple);
        let mut wr = Writer::new();
        System::new(cfg, &w, 7).save_state(&mut wr);
        let bytes = wr.into_bytes();
        let other = SystemConfig::with_controller(scale(), ControllerKind::Dice);
        let mut sys = System::new(other, &w, 7);
        let mut rd = Reader::new(&bytes);
        assert!(sys.load_state(&mut rd).is_err());
    }

    #[test]
    fn baryon_accessor_works() {
        let w = by_name("505.mcf_r", scale()).expect("workload");
        let cfg = SystemConfig::baryon_cache_mode(scale());
        let mut sys = System::new(cfg, &w, 7);
        assert!(sys.controller().as_baryon().is_some());
        sys.controller_mut()
            .as_baryon_mut()
            .expect("baryon")
            .enable_phase_tracking(64, 100);
    }
}
