//! Declarative run specifications.
//!
//! A [`RunSpec`] names one `(workload, controller)` simulation with all of
//! its knobs; a [`GridSpec`] is the cross product of several. Both
//! round-trip through [`baryon_sim::json`], which is how jobs travel over
//! the wire to `baryon-serve` and how `baryon-cli run` describes the run
//! it is about to execute. Keeping the execution path here — one function,
//! used by the CLI, every server worker and every paper figure — is what
//! makes a job submitted remotely byte-identical to the same run performed
//! locally. [`execute_all`] is the one in-process runner for a list of
//! specs.

use baryon_core::checkpoint::{Checkpoint, RestoreError};
use baryon_core::family::FamilyId;
use baryon_core::metrics::RunResult;
use baryon_core::policy::{FleetPolicy, Knobs};
use baryon_core::system::{ControllerKind, RunProgress, System, SystemConfig};
use baryon_sim::json::{parse, Json};
use baryon_sim::wire::{Reader, Writer};
use baryon_workloads::{by_name, Scale};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// File-name prefix used by [`RunSpec::execute_with_checkpoints`] for its
/// rotating checkpoint files (`ckpt-<ops>.ckpt`).
pub const CHECKPOINT_PREFIX: &str = "ckpt";

/// Controller names accepted by [`controller_kind`], in presentation
/// order — the [`FamilyId`] registry's name table.
pub const CONTROLLER_NAMES: &[&str] = &FamilyId::NAMES;

/// Resolves a controller name to its configuration at the given scale
/// through the [`FamilyId`] registry.
///
/// Returns `None` for unknown names; see [`CONTROLLER_NAMES`].
pub fn controller_kind(name: &str, scale: Scale) -> Option<ControllerKind> {
    Some(FamilyId::parse(name).ok()?.kind(scale))
}

/// Stamps the policy's config generation into a finished result.
fn stamp_generation(mut result: RunResult, policy: Option<&FleetPolicy>) -> RunResult {
    result.config_generation = policy.map_or(0, |p| p.generation);
    result
}

/// Runs every spec to completion on scoped worker threads (one per
/// available core, at most one per spec) and returns the results in input
/// order. Each run is deterministic, so the thread count only changes
/// wall-clock time, never a result.
///
/// # Errors
///
/// The first invalid spec's [`RunSpec::validate`] error, before anything
/// runs; otherwise the first failed run's error, in input order.
pub fn execute_all(specs: &[RunSpec]) -> Result<Vec<RunResult>, String> {
    for spec in specs {
        spec.validate()?;
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunResult, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(specs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                *slots[i].lock().expect("slot lock") = Some(spec.execute());
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every spec ran")
        })
        .collect()
}

/// One fully-specified simulation run.
///
/// Defaults match `baryon-cli run` exactly, so a spec built from a sparse
/// JSON document runs the same experiment the CLI would.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name (see `baryon-cli list`).
    pub workload: String,
    /// Controller name (see [`CONTROLLER_NAMES`]).
    pub controller: String,
    /// Measured instructions per core.
    pub insts: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Capacity scale divisor vs the paper's machine.
    pub scale: u64,
    /// RNG seed shared by workload generation and the system.
    pub seed: u64,
    /// Memory-level parallelism per core.
    pub mlp: u64,
    /// Collect wall-clock spans (`*.span.*` summaries) during the run.
    /// Off by default: disabled runs never read the host clock, keeping
    /// results bit-identical.
    pub telemetry: bool,
    /// Host threads per run. Runs are single-threaded (parallelism comes
    /// from running many specs at once), so 1 is the only valid value; the
    /// field stays on the wire so spec documents keep their bytes.
    pub threads: u64,
    /// Controller knobs overlaid on the family's default design point at
    /// the run's scale (Baryon families only). They take precedence over
    /// a fleet policy's knobs, so a spec names the same design point under
    /// any policy generation.
    pub knobs: Knobs,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: "505.mcf_r".to_owned(),
            controller: "baryon".to_owned(),
            insts: 150_000,
            warmup: 50_000,
            scale: 256,
            seed: 42,
            mlp: 1,
            telemetry: false,
            threads: 1,
            knobs: Knobs::default(),
        }
    }
}

fn field_str(key: &str, value: &Json) -> Result<String, String> {
    match value {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "field `{key}` must be a string, got {}",
            other.render()
        )),
    }
}

fn field_u64(key: &str, value: &Json) -> Result<u64, String> {
    match value {
        Json::U64(n) => Ok(*n),
        Json::I64(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "field `{key}` must be a non-negative integer, got {}",
            other.render()
        )),
    }
}

fn field_bool(key: &str, value: &Json) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        other => Err(format!(
            "field `{key}` must be a boolean, got {}",
            other.render()
        )),
    }
}

fn field_str_list(key: &str, value: &Json) -> Result<Vec<String>, String> {
    let Json::Arr(items) = value else {
        return Err(format!(
            "field `{key}` must be an array of strings, got {}",
            value.render()
        ));
    };
    items.iter().map(|v| field_str(key, v)).collect()
}

impl RunSpec {
    /// Builds a spec from a JSON object, starting from [`Default`] and
    /// overriding any of `workload`, `controller`, `insts`, `warmup`,
    /// `scale`, `seed`, `mlp`, `telemetry`, `threads`, `knobs`.
    ///
    /// # Errors
    ///
    /// Rejects non-objects, unknown fields (typos should fail loudly, not
    /// silently run the default experiment), ill-typed values, and knobs
    /// that are invalid for the controller at the spec's scale.
    pub fn from_json(doc: &Json) -> Result<RunSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("run spec must be an object, got {}", doc.render()));
        };
        let mut spec = RunSpec::default();
        for (key, value) in pairs {
            if !spec.set_field(key, value)? {
                return Err(format!("unknown run spec field `{key}`"));
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Sets the field `key` from `value` — the one field list shared by
    /// run and grid documents. Returns `Ok(false)` for an unknown key.
    fn set_field(&mut self, key: &str, value: &Json) -> Result<bool, String> {
        match key {
            "workload" => self.workload = field_str(key, value)?,
            "controller" => self.controller = field_str(key, value)?,
            "insts" => self.insts = field_u64(key, value)?,
            "warmup" => self.warmup = field_u64(key, value)?,
            "scale" => self.scale = field_u64(key, value)?,
            "seed" => self.seed = field_u64(key, value)?,
            "mlp" => self.mlp = field_u64(key, value)?,
            "telemetry" => self.telemetry = field_bool(key, value)?,
            "threads" => self.threads = field_u64(key, value)?,
            "knobs" => {
                self.knobs = Knobs::from_json(value).map_err(|e| format!("field `knobs`: {e}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The spec as a JSON object: every field in declaration order, with
    /// `knobs` left out when it is empty.
    pub fn to_json(&self) -> Json {
        let knobs = (!self.knobs.is_empty()).then(|| ("knobs", self.knobs.to_json()));
        Json::obj(
            [
                ("workload", Json::from(self.workload.as_str())),
                ("controller", Json::from(self.controller.as_str())),
                ("insts", Json::from(self.insts)),
                ("warmup", Json::from(self.warmup)),
                ("scale", Json::from(self.scale)),
                ("seed", Json::from(self.seed)),
                ("mlp", Json::from(self.mlp)),
                ("telemetry", Json::Bool(self.telemetry)),
                ("threads", Json::from(self.threads)),
            ]
            .into_iter()
            .chain(knobs),
        )
    }

    /// Checks names, numeric ranges and knobs without running anything.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(None)
    }

    /// [`RunSpec::validate`] under a fleet policy: the controller is
    /// resolved the way a run under `policy` builds it, so admission can
    /// refuse a job whose scale the active policy's knobs invalidate
    /// instead of failing it at run time.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field or knob.
    pub fn validate_with(&self, policy: Option<&FleetPolicy>) -> Result<(), String> {
        let scale = Scale {
            divisor: self.scale.max(1),
        };
        if by_name(&self.workload, scale).is_none() {
            return Err(format!("unknown workload `{}`", self.workload));
        }
        if controller_kind(&self.controller, scale).is_none() {
            return Err(format!("unknown controller `{}`", self.controller));
        }
        if self.scale == 0 {
            return Err("`scale` must be at least 1".to_owned());
        }
        if self.insts == 0 {
            return Err("`insts` must be at least 1".to_owned());
        }
        if self.mlp == 0 {
            return Err("`mlp` must be at least 1".to_owned());
        }
        if self.threads != 1 {
            return Err(format!(
                "`threads` must be 1: runs are single-threaded, got {}",
                self.threads
            ));
        }
        self.controller_at(policy).map(drop)
    }

    /// The controller this spec runs: the family default at the spec's
    /// scale, then the spec's knobs, then the policy's knobs for the
    /// fields the spec leaves unset, validated at that scale. Knobs in a
    /// spec for a non-Baryon controller are an error; a policy's knobs
    /// pass non-Baryon runs through unchanged.
    fn controller_at(&self, policy: Option<&FleetPolicy>) -> Result<ControllerKind, String> {
        let scale = Scale {
            divisor: self.scale,
        };
        match controller_kind(&self.controller, scale).expect("validated name") {
            ControllerKind::Baryon(cfg) => {
                let knobs = policy.map_or(self.knobs, |p| self.knobs.or(&p.knobs));
                knobs.resolve(cfg).map(ControllerKind::Baryon).map_err(|e| {
                    format!(
                        "knobs for `{}` at scale {}: {e}",
                        self.controller, self.scale
                    )
                })
            }
            _ if !self.knobs.is_empty() => Err(format!(
                "`knobs` apply only to Baryon-family controllers, not `{}`",
                self.controller
            )),
            kind => Ok(kind),
        }
    }

    /// Runs the spec to completion. The construction mirrors
    /// `baryon-cli run` line for line, so results (and their
    /// [`RunResult::to_json`] renderings) are identical across entry
    /// points.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn execute(&self) -> Result<RunResult, String> {
        self.execute_with(None)
    }

    /// [`RunSpec::execute`] under a fleet policy: the policy's knobs fill
    /// the fields the spec's knobs leave unset, and the policy's config
    /// generation is stamped into the result. `None` is the baseline and
    /// bit-identical to [`RunSpec::execute`].
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::build_system_with`] error.
    pub fn execute_with(&self, policy: Option<&FleetPolicy>) -> Result<RunResult, String> {
        let mut system = self.build_system_with(policy)?;
        Ok(stamp_generation(system.run(self.insts), policy))
    }

    /// Constructs the [`System`] this spec describes without running it —
    /// the shared front half of [`RunSpec::execute`] and the checkpoint
    /// paths, so a resumed run is built from byte-identical configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges.
    pub fn build_system(&self) -> Result<System, String> {
        self.build_system_with(None)
    }

    /// [`RunSpec::build_system`] with a fleet policy's knobs filling the
    /// fields the spec's knobs leave unset.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error for bad names or ranges,
    /// or the configuration error of knobs invalid at the spec's scale.
    pub fn build_system_with(&self, policy: Option<&FleetPolicy>) -> Result<System, String> {
        self.validate()?;
        let scale = Scale {
            divisor: self.scale,
        };
        let workload = by_name(&self.workload, scale).expect("validated");
        let kind = self.controller_at(policy)?;
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = self.warmup;
        cfg.mlp = self.mlp as usize;
        cfg.telemetry = self.telemetry;
        Ok(System::new(cfg, &workload, self.seed))
    }

    /// Snapshots an in-progress run of this spec as a [`Checkpoint`].
    pub fn checkpoint_of(&self, system: &System) -> Checkpoint {
        let mut w = Writer::new();
        system.save_state(&mut w);
        Checkpoint {
            spec_json: self.to_json().render(),
            workload: self.workload.clone(),
            seed: self.seed,
            ops: system.run_ops(),
            state: w.into_bytes(),
        }
    }

    /// Runs the spec to completion, writing a rotating checkpoint into
    /// `dir` every `every` trace operations (the newest `keep` are
    /// retained). The returned result is bit-identical to
    /// [`RunSpec::execute`] — checkpointing only observes the run, it
    /// never perturbs it.
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error. A checkpoint that cannot
    /// be written (full or faulty disk) is logged and skipped — the run
    /// itself never fails over its recovery accelerator.
    pub fn execute_with_checkpoints(
        &self,
        dir: &Path,
        every: u64,
        keep: usize,
    ) -> Result<RunResult, String> {
        self.execute_observed_with(every, Some((dir, keep)), &mut |_| {}, None)
    }

    /// Runs the spec to completion incrementally, invoking `observe` with
    /// a [`RunProgress`] snapshot every `every` trace operations (and once
    /// more when the run completes), under an optional fleet policy (see
    /// [`RunSpec::execute_with`]). When `checkpoints` is `Some((dir,
    /// keep))`, a rotating checkpoint is also written at each step.
    /// Observation and checkpointing only watch the run — the result is
    /// bit-identical to [`RunSpec::execute_with`].
    ///
    /// # Errors
    ///
    /// Returns the [`RunSpec::validate`] error. A checkpoint that cannot
    /// be written (full or faulty disk) is logged and skipped — the run
    /// itself never fails over its recovery accelerator.
    pub fn execute_observed_with(
        &self,
        every: u64,
        checkpoints: Option<(&Path, usize)>,
        observe: &mut dyn FnMut(RunProgress),
        policy: Option<&FleetPolicy>,
    ) -> Result<RunResult, String> {
        let every = every.max(1);
        let mut system = self.build_system_with(policy)?;
        system.begin(self.insts);
        loop {
            let done = system.advance(every);
            if let Some((dir, keep)) = checkpoints {
                if !done {
                    // Checkpoints are a recovery accelerator, not the source
                    // of truth (the journal is): a write failure — a full or
                    // lying disk under chaos — degrades resume granularity
                    // but must never fail the run itself.
                    if let Err(e) =
                        self.checkpoint_of(&system)
                            .save_rotating(dir, CHECKPOINT_PREFIX, keep)
                    {
                        eprintln!("baryon: skipping checkpoint into {}: {e}", dir.display());
                    }
                }
            }
            observe(system.run_progress().expect("run in progress"));
            if done {
                return Ok(stamp_generation(system.finish(), policy));
            }
        }
    }
}

/// Restores the run captured by the checkpoint at `path` and runs it to
/// completion, returning the embedded spec and the final result. The
/// result is bit-identical to an uninterrupted [`RunSpec::execute`] of
/// the same spec.
///
/// # Errors
///
/// Any [`RestoreError`]: an unreadable/corrupt file, a state blob that
/// does not decode against the rebuilt system, or an embedded spec that
/// disagrees with the checkpoint envelope.
pub fn resume_from(path: &Path) -> Result<(RunSpec, RunResult), RestoreError> {
    resume_from_with(path, None)
}

/// [`resume_from`] under a fleet policy: the system is rebuilt with the
/// same overlaid configuration the checkpointed run executed with, so a
/// shard respawned mid-generation resumes its jobs correctly.
///
/// # Errors
///
/// Any [`RestoreError`] (see [`resume_from`]).
pub fn resume_from_with(
    path: &Path,
    policy: Option<&FleetPolicy>,
) -> Result<(RunSpec, RunResult), RestoreError> {
    let ckpt = Checkpoint::read_from(path)?;
    let doc = parse(&ckpt.spec_json)
        .map_err(|e| RestoreError::SpecMismatch(format!("embedded spec is not valid JSON: {e}")))?;
    let spec = RunSpec::from_json(&doc).map_err(RestoreError::SpecMismatch)?;
    if spec.workload != ckpt.workload {
        return Err(RestoreError::SpecMismatch(format!(
            "envelope workload `{}` disagrees with embedded spec `{}`",
            ckpt.workload, spec.workload
        )));
    }
    if spec.seed != ckpt.seed {
        return Err(RestoreError::SpecMismatch(format!(
            "envelope seed {} disagrees with embedded spec {}",
            ckpt.seed, spec.seed
        )));
    }
    let mut system = spec
        .build_system_with(policy)
        .map_err(RestoreError::SpecMismatch)?;
    let mut r = Reader::new(&ckpt.state);
    system.load_state(&mut r)?;
    r.finish()?;
    if !system.run_in_progress() {
        return Err(RestoreError::SpecMismatch(
            "checkpoint does not carry an in-progress run".to_owned(),
        ));
    }
    system.advance(u64::MAX);
    Ok((spec, stamp_generation(system.finish(), policy)))
}

/// A cross product of workloads × controllers sharing one set of knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workload names (the grid's rows).
    pub workloads: Vec<String>,
    /// Controller names (the grid's columns).
    pub controllers: Vec<String>,
    /// Knobs shared by every cell (its `workload`/`controller` are ignored).
    pub base: RunSpec,
}

impl GridSpec {
    /// Builds a grid from a JSON object with `workloads` and `controllers`
    /// string arrays plus any [`RunSpec`] field other than `workload` and
    /// `controller`.
    ///
    /// # Errors
    ///
    /// Rejects empty axes, unknown fields, and ill-typed values.
    pub fn from_json(doc: &Json) -> Result<GridSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("grid spec must be an object, got {}", doc.render()));
        };
        let mut workloads = Vec::new();
        let mut controllers = Vec::new();
        let mut base = RunSpec::default();
        for (key, value) in pairs {
            match key.as_str() {
                "workloads" => workloads = field_str_list(key, value)?,
                "controllers" => controllers = field_str_list(key, value)?,
                "workload" | "controller" => {
                    return Err(format!("unknown grid spec field `{key}`"));
                }
                _ => {
                    if !base.set_field(key, value)? {
                        return Err(format!("unknown grid spec field `{key}`"));
                    }
                }
            }
        }
        if workloads.is_empty() {
            return Err("grid spec needs a non-empty `workloads` array".to_owned());
        }
        if controllers.is_empty() {
            return Err("grid spec needs a non-empty `controllers` array".to_owned());
        }
        let grid = GridSpec {
            workloads,
            controllers,
            base,
        };
        for cell in grid.expand() {
            cell.validate()?;
        }
        Ok(grid)
    }

    /// The individual runs, row-major (`workloads` outer, `controllers`
    /// inner) — the order every figure table uses.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut cells = Vec::with_capacity(self.workloads.len() * self.controllers.len());
        for w in &self.workloads {
            for c in &self.controllers {
                let mut cell = self.base.clone();
                cell.workload = w.clone();
                cell.controller = c.clone();
                cells.push(cell);
            }
        }
        cells
    }
}

/// A job body as accepted by `baryon-serve`: either one run or a grid
/// (an object whose single distinguishing key is `grid`).
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One simulation.
    Run(RunSpec),
    /// A workloads × controllers sweep.
    Grid(GridSpec),
}

impl JobSpec {
    /// Parses either shape: `{"grid": {...}}` or a bare [`RunSpec`] object.
    ///
    /// # Errors
    ///
    /// Propagates the underlying spec errors.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        if let Json::Obj(pairs) = doc {
            if let Some((_, grid)) = pairs.iter().find(|(k, _)| k == "grid") {
                if pairs.len() != 1 {
                    return Err("a grid job must contain only the `grid` field".to_owned());
                }
                return GridSpec::from_json(grid).map(JobSpec::Grid);
            }
        }
        RunSpec::from_json(doc).map(JobSpec::Run)
    }

    /// The spec echoed back as JSON (what `GET /v1/jobs/<id>` reports).
    pub fn to_json(&self) -> Json {
        match self {
            JobSpec::Run(spec) => spec.to_json(),
            JobSpec::Grid(grid) => {
                let mut pairs = vec![
                    (
                        "workloads".to_owned(),
                        Json::arr(grid.workloads.iter().map(|w| Json::from(w.as_str()))),
                    ),
                    (
                        "controllers".to_owned(),
                        Json::arr(grid.controllers.iter().map(|c| Json::from(c.as_str()))),
                    ),
                ];
                if let Json::Obj(base) = grid.base.to_json() {
                    pairs.extend(
                        base.into_iter()
                            .filter(|(k, _)| k != "workload" && k != "controller"),
                    );
                }
                Json::obj([("grid", Json::Obj(pairs))])
            }
        }
    }

    /// Checks every cell under `policy` ([`RunSpec::validate_with`]) —
    /// the admission check against the policy active at submission.
    ///
    /// # Errors
    ///
    /// The first failing cell's message.
    pub fn validate_with(&self, policy: Option<&FleetPolicy>) -> Result<(), String> {
        self.cells()
            .iter()
            .try_for_each(|cell| cell.validate_with(policy))
    }

    /// Number of individual simulations this job performs.
    pub fn runs(&self) -> usize {
        self.cells().len()
    }

    /// The job's individual runs, row-major: one for a run, the grid's
    /// expansion for a grid.
    pub fn cells(&self) -> Vec<RunSpec> {
        match self {
            JobSpec::Run(spec) => vec![spec.clone()],
            JobSpec::Grid(grid) => grid.expand(),
        }
    }

    /// Assembles the job's result document from per-cell result documents
    /// (`cells[i]` is [`JobSpec::cells`]`()[i]`'s, in any completion
    /// order): a run's result is its one cell's document, a grid's is
    /// `{"results": [...]}` in row-major order. Every execution path —
    /// [`JobSpec::execute`], a serving worker, a fleet gather — builds the
    /// document here, so they agree byte for byte.
    ///
    /// # Errors
    ///
    /// A slot count that does not match the job's cells, or the first cell
    /// still missing its result (named by index, workload and controller).
    pub fn gather(&self, cells: Vec<Option<Json>>) -> Result<Json, String> {
        let specs = self.cells();
        if cells.len() != specs.len() {
            return Err(format!(
                "gather got {} slots for {} cells",
                cells.len(),
                specs.len()
            ));
        }
        let mut docs = Vec::with_capacity(cells.len());
        for (i, (slot, spec)) in cells.into_iter().zip(&specs).enumerate() {
            docs.push(slot.ok_or_else(|| {
                format!(
                    "cell {i} ({} / {}) has no result",
                    spec.workload, spec.controller
                )
            })?);
        }
        Ok(match self {
            JobSpec::Run(_) => docs.pop().expect("a run has exactly one cell"),
            JobSpec::Grid(_) => Json::obj([("results", Json::Arr(docs))]),
        })
    }

    /// Executes the job's cells through [`execute_all`] and gathers their
    /// documents ([`JobSpec::gather`]).
    ///
    /// # Errors
    ///
    /// Returns the first cell's error message; cells are validated up
    /// front so partial grids are not silently dropped.
    pub fn execute(&self) -> Result<Json, String> {
        let results = execute_all(&self.cells())?;
        self.gather(results.iter().map(|r| Some(r.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_sim::json::parse;

    #[test]
    fn controller_names_all_resolve() {
        let scale = Scale { divisor: 1024 };
        for name in CONTROLLER_NAMES {
            assert!(controller_kind(name, scale).is_some(), "{name}");
        }
        assert!(controller_kind("nope", scale).is_none());
    }

    #[test]
    fn run_spec_json_roundtrip() {
        let spec = RunSpec {
            workload: "ycsb-a".into(),
            controller: "dice".into(),
            insts: 1000,
            warmup: 10,
            scale: 1024,
            seed: 7,
            mlp: 2,
            telemetry: true,
            ..RunSpec::default()
        };
        let back = RunSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
        let with_knobs = RunSpec {
            controller: "baryon".into(),
            knobs: Knobs {
                commit_k: Some(f64::INFINITY),
                blocks_per_super: Some(16),
                ..Knobs::default()
            },
            ..spec
        };
        let text = with_knobs.to_json().render();
        assert!(
            text.ends_with(r#""threads":1,"knobs":{"commit_k":"inf","blocks_per_super":16}}"#),
            "{text}"
        );
        let back = RunSpec::from_json(&parse(&text).expect("json")).expect("roundtrip");
        assert_eq!(back, with_knobs);
    }

    /// Spec documents without knobs render exactly as before knobs
    /// existed: checkpoints, journals and fleet posts embed these bytes.
    #[test]
    fn knob_free_documents_render_byte_identically() {
        for doc in [
            r#"{"workload":"ycsb-a","controller":"dice","insts":1000,"warmup":10,"scale":1024,"seed":7,"mlp":2,"telemetry":true,"threads":1}"#,
            r#"{"grid":{"workloads":["ycsb-a","pr.twi"],"controllers":["simple","baryon"],"insts":2000,"warmup":500,"scale":2048,"seed":42,"mlp":1,"telemetry":false,"threads":1}}"#,
        ] {
            let job = JobSpec::from_json(&parse(doc).expect("json")).expect("valid job");
            assert_eq!(job.to_json().render(), doc);
        }
        let grid = parse(
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["baryon","baryon-fa"],"scale":2048,"knobs":{"zero_opt":false}}}"#,
        )
        .expect("json");
        let job = JobSpec::from_json(&grid).expect("grid with knobs");
        assert_eq!(job.runs(), 2);
        assert!(job.cells().iter().all(|c| c.knobs.zero_opt == Some(false)));
        assert!(job
            .to_json()
            .render()
            .ends_with(r#""threads":1,"knobs":{"zero_opt":false}}}"#));
    }

    #[test]
    fn knobs_are_validated_against_controller_and_scale() {
        for bad in [
            // Knobs only tune Baryon-family controllers.
            r#"{"controller":"dice","knobs":{"zero_opt":false}}"#,
            // Unknown and ill-typed knobs.
            r#"{"knobs":{"zero_optt":false}}"#,
            r#"{"knobs":{"commit_k":"lots"}}"#,
            r#"{"knobs":[1]}"#,
            // Invalid at the spec's own scale: 1024 stage ways need more
            // stage blocks than scale 4096 provides.
            r#"{"scale":4096,"knobs":{"stage_ways":1024}}"#,
            r#"{"controller":"baryon-fa","knobs":{"assoc":4}}"#,
            // Sizes that would ask the allocator for terabytes.
            r#"{"workload":"ycsb-a","knobs":{"stage_bytes":0,"stage_ways":1099511627776}}"#,
            r#"{"knobs":{"stage_bytes":18446744073709551615}}"#,
            r#"{"knobs":{"blocks_per_super":1099511627776}}"#,
        ] {
            let doc = parse(bad).expect("valid json");
            assert!(RunSpec::from_json(&doc).is_err(), "accepted {bad}");
        }
        let grid = parse(
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["baryon","simple"],"knobs":{"zero_opt":false}}}"#,
        )
        .expect("json");
        let err = JobSpec::from_json(&grid).expect_err("simple takes no knobs");
        assert!(err.contains("simple"), "{err}");
    }

    #[test]
    fn sparse_spec_fills_cli_defaults() {
        let doc = parse(r#"{"workload":"ycsb-a"}"#).expect("valid json");
        let spec = RunSpec::from_json(&doc).expect("valid spec");
        assert_eq!(spec.workload, "ycsb-a");
        assert_eq!(spec.controller, "baryon");
        assert_eq!(spec.insts, 150_000);
        assert_eq!(spec.warmup, 50_000);
        assert_eq!(spec.scale, 256);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.mlp, 1);
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn unknown_and_ill_typed_fields_rejected() {
        for bad in [
            r#"{"workloadd":"ycsb-a"}"#,
            r#"{"insts":"many"}"#,
            r#"{"insts":-5}"#,
            r#"{"workload":7}"#,
            r#"{"workload":"nope"}"#,
            r#"{"controller":"nope"}"#,
            r#"{"insts":0}"#,
            r#"{"scale":0}"#,
            r#"{"mlp":0}"#,
            r#"{"threads":0}"#,
            r#"{"threads":2}"#,
            r#"[1,2]"#,
        ] {
            let doc = parse(bad).expect("valid json");
            assert!(RunSpec::from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn execute_matches_direct_system_run() {
        let spec = RunSpec {
            workload: "ycsb-a".into(),
            controller: "simple".into(),
            insts: 5_000,
            warmup: 1_000,
            scale: 1024,
            seed: 9,
            ..RunSpec::default()
        };
        let via_spec = spec.execute().expect("runs");

        let scale = Scale { divisor: 1024 };
        let workload = by_name("ycsb-a", scale).expect("known");
        let kind = controller_kind("simple", scale).expect("known");
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = 1_000;
        cfg.mlp = 1;
        let direct = System::new(cfg, &workload, 9).run(5_000);

        assert_eq!(via_spec.to_json().render(), direct.to_json().render());
    }

    #[test]
    fn grid_expands_row_major() {
        let doc = parse(
            r#"{"grid":{"workloads":["ycsb-a","pr.twi"],
                      "controllers":["simple","dice"],
                      "insts":1000,"scale":1024}}"#,
        )
        .expect("valid json");
        let JobSpec::Grid(grid) = JobSpec::from_json(&doc).expect("valid grid") else {
            panic!("expected a grid job");
        };
        let cells = grid.expand();
        let names: Vec<(String, String)> = cells
            .iter()
            .map(|c| (c.workload.clone(), c.controller.clone()))
            .collect();
        assert_eq!(
            names,
            [
                ("ycsb-a".to_owned(), "simple".to_owned()),
                ("ycsb-a".to_owned(), "dice".to_owned()),
                ("pr.twi".to_owned(), "simple".to_owned()),
                ("pr.twi".to_owned(), "dice".to_owned()),
            ]
        );
        assert!(cells.iter().all(|c| c.insts == 1000 && c.scale == 1024));
    }

    #[test]
    fn grid_rejects_empty_axes_and_extras() {
        for bad in [
            r#"{"grid":{"controllers":["simple"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"]}}"#,
            r#"{"grid":{"workloads":[],"controllers":["simple"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["nope"]}}"#,
            r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"]},"insts":5}"#,
        ] {
            let doc = parse(bad).expect("valid json");
            assert!(JobSpec::from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("baryon-spec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> RunSpec {
        RunSpec {
            workload: "ycsb-a".into(),
            controller: "baryon".into(),
            insts: 5_000,
            warmup: 2_000,
            scale: 1024,
            seed: 11,
            ..RunSpec::default()
        }
    }

    #[test]
    fn checkpointed_run_matches_uninterrupted() {
        let spec = small_spec();
        let golden = spec.execute().expect("golden run");

        let dir = temp_dir("ckpt");
        let observed = spec
            .execute_with_checkpoints(&dir, 500, 3)
            .expect("checkpointed run");
        assert_eq!(
            observed.to_json().render(),
            golden.to_json().render(),
            "checkpointing perturbed the run"
        );

        // At most `keep` files remain, and the newest resumes to the
        // same result as the uninterrupted golden.
        let latest = Checkpoint::latest_in(&dir, CHECKPOINT_PREFIX)
            .expect("scan checkpoints")
            .expect("at least one checkpoint");
        let files = std::fs::read_dir(&dir).expect("dir").count();
        assert!(files <= 3, "rotation kept {files} files");
        let (back_spec, resumed) = resume_from(&latest).expect("resume");
        assert_eq!(back_spec, spec);
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "resumed run diverged from golden"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn resume_rejects_tampered_envelope() {
        let spec = small_spec();
        let dir = temp_dir("tamper");
        std::fs::create_dir_all(&dir).expect("mkdir");

        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        assert!(!system.advance(500), "run too short for test");
        let mut ckpt = spec.checkpoint_of(&system);
        ckpt.seed = spec.seed + 1; // envelope no longer matches the spec
        let path = dir.join("bad.ckpt");
        ckpt.write_to(&path).expect("write");
        match resume_from(&path) {
            Err(RestoreError::SpecMismatch(msg)) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn policy_overlay_changes_run_and_stamps_generation() {
        let spec = small_spec();
        let baseline = spec.execute().expect("baseline");
        // An empty policy at generation 0 is bit-identical to no policy.
        let noop = FleetPolicy::default();
        let under_noop = spec.execute_with(Some(&noop)).expect("noop policy");
        assert_eq!(under_noop.to_json().render(), baseline.to_json().render());
        // A real override perturbs the run and stamps its generation.
        let policy = FleetPolicy {
            generation: 5,
            knobs: Knobs {
                commit_all: Some(true),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        let under_policy = spec.execute_with(Some(&policy)).expect("policy run");
        assert_eq!(under_policy.config_generation, 5);
        assert!(
            under_policy
                .to_json()
                .render()
                .contains("\"config_generation\":5"),
            "generation missing from the document"
        );
        assert_ne!(
            under_policy.total_cycles, baseline.total_cycles,
            "commit-all override did not change the run"
        );
    }

    #[test]
    fn policy_resume_matches_uninterrupted_policy_run() {
        let spec = small_spec();
        let policy = FleetPolicy {
            generation: 2,
            knobs: Knobs {
                zero_opt: Some(false),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        let golden = spec.execute_with(Some(&policy)).expect("golden");
        let dir = temp_dir("policy-ckpt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let observed = spec
            .execute_observed_with(500, Some((&dir, 3)), &mut |_| {}, Some(&policy))
            .expect("checkpointed run");
        assert_eq!(observed.to_json().render(), golden.to_json().render());
        let latest = Checkpoint::latest_in(&dir, CHECKPOINT_PREFIX)
            .expect("scan")
            .expect("checkpoint exists");
        let (_, resumed) = resume_from_with(&latest, Some(&policy)).expect("resume");
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "policy-aware resume diverged"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A spec's knobs win over the policy's, so a figure cell names the
    /// same design point under any fleet generation.
    #[test]
    fn spec_knobs_take_precedence_over_policy_knobs() {
        let spec = RunSpec {
            knobs: Knobs {
                commit_k: Some(0.0),
                ..Knobs::default()
            },
            ..small_spec()
        };
        let policy = FleetPolicy {
            generation: 4,
            knobs: Knobs {
                commit_k: Some(2.0),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        let mut under_policy = spec.execute_with(Some(&policy)).expect("policy run");
        assert_eq!(under_policy.config_generation, 4);
        under_policy.config_generation = 0;
        let plain = spec.execute().expect("plain run");
        assert_eq!(under_policy.to_json().render(), plain.to_json().render());
        // The policy still fills what the spec leaves unset.
        let unset = small_spec().execute_with(Some(&policy)).expect("run");
        assert_ne!(unset.total_cycles, plain.total_cycles);
    }

    /// A policy that passes stage-time validation can still be invalid at
    /// a run's own scale; the run must fail with an error, not a panic.
    #[test]
    fn policy_invalid_at_run_scale_is_an_error() {
        let policy = FleetPolicy {
            knobs: Knobs {
                stage_ways: Some(1024),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        // Built without `validate`, which refuses it: a run at a scale the
        // policy invalidates must fail with an error, not panic.
        let spec = RunSpec {
            scale: 4096,
            ..small_spec()
        };
        let err = spec.execute_with(Some(&policy)).expect_err("invalid here");
        assert!(err.contains("stage area smaller than one set"), "{err}");
        assert!(err.contains("4096"), "{err}");
        // Non-Baryon controllers pass a policy's knobs through unchanged.
        let simple = RunSpec {
            controller: "simple".into(),
            ..spec
        };
        simple
            .execute_with(Some(&policy))
            .expect("simple ignores knobs");
    }

    /// Admission resolves every cell under the active policy at the
    /// cell's own scale, past the divisors the policy's validation walks.
    #[test]
    fn validate_with_checks_the_policy_at_the_spec_scale() {
        let policy = FleetPolicy {
            knobs: Knobs {
                stage_ways: Some(64),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        policy.validate().expect("valid at every validated divisor");
        let big = RunSpec {
            scale: 8192,
            ..small_spec()
        };
        big.validate().expect("valid without the policy");
        let err = big.validate_with(Some(&policy)).expect_err("invalid here");
        assert!(err.contains("8192"), "{err}");
        small_spec()
            .validate_with(Some(&policy))
            .expect("valid at the default scale");
        let grid = JobSpec::Grid(GridSpec {
            workloads: vec!["ycsb-a".into()],
            controllers: vec!["simple".into(), "baryon".into()],
            base: big,
        });
        assert!(grid.validate_with(Some(&policy)).is_err());
        assert_eq!(grid.validate_with(None), Ok(()));
    }

    #[test]
    fn job_spec_dispatches_on_grid_key() {
        let run = parse(r#"{"workload":"ycsb-a"}"#).expect("json");
        assert!(matches!(
            JobSpec::from_json(&run).expect("run"),
            JobSpec::Run(_)
        ));
        let grid =
            parse(r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"]}}"#).expect("json");
        let job = JobSpec::from_json(&grid).expect("grid");
        assert!(matches!(job, JobSpec::Grid(_)));
        assert_eq!(job.runs(), 1);
        // The echo names both axes.
        let echo = job.to_json().render();
        assert!(echo.contains("\"workloads\""), "{echo}");
    }

    fn three_by_two() -> GridSpec {
        GridSpec {
            workloads: vec!["ycsb-a".into(), "pr.twi".into()],
            controllers: vec!["simple".into(), "dice".into(), "unison".into()],
            base: RunSpec {
                insts: 2_000,
                warmup: 500,
                scale: 2048,
                ..RunSpec::default()
            },
        }
    }

    #[test]
    fn out_of_order_gather_matches_execute() {
        for job in [
            JobSpec::Grid(three_by_two()),
            JobSpec::Run(three_by_two().expand().remove(1)),
        ] {
            let golden = job.execute().expect("job runs");
            // Execute cells out of order (as fleet shards would) and gather.
            let cells = job.cells();
            let mut slots: Vec<Option<Json>> = vec![None; cells.len()];
            for (i, cell) in cells.iter().enumerate().rev() {
                slots[i] = Some(cell.execute().expect("cell runs").to_json());
            }
            let gathered = job.gather(slots).expect("complete");
            assert_eq!(gathered.render(), golden.render());
        }
    }

    #[test]
    fn gather_reports_missing_cells_and_wrong_arity() {
        let job = JobSpec::Grid(three_by_two());
        let mut slots: Vec<Option<Json>> = vec![Some(Json::Null); 6];
        slots[4] = None;
        let err = job.gather(slots).expect_err("missing cell");
        assert!(err.contains("cell 4 (pr.twi / dice)"), "{err}");
        let err = job.gather(vec![]).expect_err("wrong arity");
        assert!(err.contains("0 slots"), "{err}");
        let run = JobSpec::Run(RunSpec::default());
        let err = run.gather(vec![None]).expect_err("missing run");
        assert!(err.contains("cell 0"), "{err}");
        let err = run
            .gather(vec![Some(Json::Null); 2])
            .expect_err("wrong arity");
        assert!(err.contains("2 slots for 1 cells"), "{err}");
    }
}
