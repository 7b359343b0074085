//! The four named workloads, the jobs they run, and what one workload run
//! produces.

use crate::metrics::Report;
use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_sim::json::Json;
use std::time::Duration;

/// A named workload. The names are cited by later changes; do not rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ycsb-a` in-process: controller-bound, 50% updates, checkpointed.
    SimKv,
    /// `resnet50` in-process: trace generation and caches dominate.
    SimCnn,
    /// Trivial singles through a 2-shard fleet: control-plane-bound.
    FleetTrivial,
    /// A 4-cell batch grid through the same fleet shape.
    FleetSweep,
}

/// The grid rows of `fleet-sweep`: one workload per access-pattern family.
pub const SWEEP_ROWS: [&str; 4] = ["ycsb-a", "pr.twi", "505.mcf_r", "resnet50"];

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SimKv,
        Workload::SimCnn,
        Workload::FleetTrivial,
        Workload::FleetSweep,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimKv => "sim-kv",
            Workload::SimCnn => "sim-cnn",
            Workload::FleetTrivial => "fleet-trivial",
            Workload::FleetSweep => "fleet-sweep",
        }
    }

    /// Resolves a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measurement window `perf run` uses when `--seconds` is not given.
    pub fn default_window(self) -> Duration {
        Duration::from_secs(match self {
            Workload::SimKv | Workload::SimCnn => 15,
            Workload::FleetTrivial => 20,
            Workload::FleetSweep => 40,
        })
    }

    /// Whether the workload runs through a live fleet.
    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetTrivial | Workload::FleetSweep)
    }

    /// The job one client request carries. The seed is the only input the
    /// benchmark varies; it becomes `RunSpec.seed` of every run.
    pub fn job(self, seed: u64) -> JobSpec {
        let sim = |workload: &str| RunSpec {
            workload: workload.to_owned(),
            seed,
            ..RunSpec::default()
        };
        match self {
            Workload::SimKv => JobSpec::Run(sim("ycsb-a")),
            Workload::SimCnn => JobSpec::Run(sim("resnet50")),
            Workload::FleetTrivial => JobSpec::Run(RunSpec {
                workload: "ycsb-a".to_owned(),
                controller: "simple".to_owned(),
                insts: 2_000,
                warmup: 500,
                scale: 1024,
                seed,
                ..RunSpec::default()
            }),
            Workload::FleetSweep => JobSpec::Grid(GridSpec {
                workloads: SWEEP_ROWS.iter().map(|w| (*w).to_owned()).collect(),
                controllers: vec!["baryon".to_owned()],
                base: sim("ycsb-a"),
            }),
        }
    }

    /// The simulation runs (cells) of one job, in gather order.
    pub fn cells(self, seed: u64) -> Vec<RunSpec> {
        match self.job(seed) {
            JobSpec::Run(spec) => vec![spec],
            JobSpec::Grid(grid) => grid.expand(),
        }
    }
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The measurement window.
    pub window: Duration,
    /// Metric readings.
    pub report: Report,
    /// Operations attempted (timed runs, jobs, sweeps and checkpointed runs).
    pub attempted: u64,
    /// Operations that failed (non-202, `failed` state, wrong result, I/O).
    pub failed_ops: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// FNV digest of the job's result document.
    pub digest: String,
    /// Per-job spans of the fleet workloads, one JSON object per job.
    pub spans: Vec<Json>,
    /// Whether per-layer numbers came from a faithful replay.
    pub layers_valid: bool,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload, window: Duration) -> Outcome {
        Outcome {
            workload,
            window,
            report: Report::default(),
            attempted: 0,
            failed_ops: 0,
            checks: Vec::new(),
            digest: String::new(),
            spans: Vec::new(),
            layers_valid: true,
        }
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.iter().filter(|c| !c.ok).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("sim"), None);
    }

    #[test]
    fn seed_reaches_every_cell() {
        for w in Workload::ALL {
            let cells = w.cells(77);
            assert!(!cells.is_empty());
            assert!(cells.iter().all(|c| c.seed == 77 && c.threads == 1));
        }
        assert_eq!(Workload::FleetSweep.cells(1).len(), SWEEP_ROWS.len());
    }

    #[test]
    fn sim_workloads_use_the_run_spec_defaults() {
        let cells = Workload::SimKv.cells(42);
        let spec = &cells[0];
        assert_eq!(spec.workload, "ycsb-a");
        assert_eq!(
            (
                spec.controller.as_str(),
                spec.scale,
                spec.insts,
                spec.warmup
            ),
            ("baryon", 256, 150_000, 50_000)
        );
    }
}
