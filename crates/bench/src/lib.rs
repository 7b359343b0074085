#![warn(missing_docs)]

//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Every `cargo bench` target under `benches/` corresponds to one table or
//! figure of the evaluation section (see DESIGN.md §3 for the index). Each
//! target prints the same rows/series the paper reports and writes a
//! machine-readable copy to `baryon-results/<id>.csv`.
//!
//! Knobs (environment variables):
//!
//! * `BARYON_BENCH_INSTS` — measured instructions per core (default 150000),
//! * `BARYON_BENCH_WARMUP` — warm-up instructions per core (default 50000),
//! * `BARYON_BENCH_SCALE` — capacity divisor vs the paper (default 256),
//! * `BARYON_BENCH_QUICK` — if set, runs a reduced workload set.

pub mod spec;

use baryon_core::config::BaryonConfig;
use baryon_core::metrics::RunResult;
use baryon_core::system::{ControllerKind, System, SystemConfig};
use baryon_workloads::{registry, Scale, Workload};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Shared run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Measured instructions per core.
    pub insts: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Capacity scale.
    pub scale: Scale,
    /// Reduced workload set for smoke runs.
    pub quick: bool,
    /// Seed shared by all runs.
    pub seed: u64,
}

impl Params {
    /// Reads parameters from the environment.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Params {
            insts: get("BARYON_BENCH_INSTS", 150_000),
            warmup: get("BARYON_BENCH_WARMUP", 50_000),
            scale: Scale {
                divisor: get("BARYON_BENCH_SCALE", 256),
            },
            quick: std::env::var("BARYON_BENCH_QUICK").is_ok(),
            seed: get("BARYON_BENCH_SEED", 42),
        }
    }

    /// The full workload suite (or the quick subset).
    pub fn workloads(&self) -> Vec<Workload> {
        let all = registry(self.scale);
        if self.quick {
            all.into_iter()
                .filter(|w| ["505.mcf_r", "549.fotonik3d_r", "pr.twi", "ycsb-a"].contains(&w.name))
                .collect()
        } else {
            all
        }
    }

    /// The representative subset used by the paper's analysis figures
    /// (Fig 11–13 style).
    pub fn representative(&self) -> Vec<Workload> {
        registry(self.scale)
            .into_iter()
            .filter(|w| {
                [
                    "505.mcf_r",
                    "520.omnetpp_r",
                    "549.fotonik3d_r",
                    "pr.twi",
                    "resnet50",
                    "ycsb-a",
                ]
                .contains(&w.name)
            })
            .collect()
    }
}

/// Runs one (workload, controller) pair and returns the measured result.
///
/// With `BARYON_BENCH_SEEDS > 1` the run repeats over consecutive seeds and
/// the cycle counts / serve statistics are averaged, trading wall-clock for
/// lower seed sensitivity.
pub fn run(params: &Params, workload: &Workload, kind: ControllerKind) -> RunResult {
    let seeds = std::env::var("BARYON_BENCH_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    let mut results: Vec<RunResult> = (0..seeds)
        .map(|k| {
            let mut cfg = SystemConfig::with_controller(params.scale, kind.clone());
            cfg.warmup_insts = params.warmup;
            let mut system = System::new(cfg, workload, params.seed + k);
            system.run(params.insts)
        })
        .collect();
    if results.len() == 1 {
        return results.pop().expect("one result");
    }
    average_runs(results)
}

/// Averages cycle counts and serve statistics over same-length runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn average_runs(results: Vec<RunResult>) -> RunResult {
    assert!(!results.is_empty(), "cannot average zero runs");
    let n = results.len() as u64;
    let mut acc = results[0].clone();
    acc.total_cycles = results.iter().map(|r| r.total_cycles).sum::<u64>() / n;
    acc.instructions = results.iter().map(|r| r.instructions).sum::<u64>() / n;
    acc.llc_misses = results.iter().map(|r| r.llc_misses).sum::<u64>() / n;
    acc.serve.reads = results.iter().map(|r| r.serve.reads).sum::<u64>() / n;
    acc.serve.fast_served = results.iter().map(|r| r.serve.fast_served).sum::<u64>() / n;
    acc.serve.writebacks = results.iter().map(|r| r.serve.writebacks).sum::<u64>() / n;
    acc.serve.useful_bytes = results.iter().map(|r| r.serve.useful_bytes).sum::<u64>() / n;
    acc.serve.fast_bytes = results.iter().map(|r| r.serve.fast_bytes).sum::<u64>() / n;
    acc.serve.slow_bytes = results.iter().map(|r| r.serve.slow_bytes).sum::<u64>() / n;
    acc.serve.energy_pj = results.iter().map(|r| r.serve.energy_pj).sum::<f64>() / n as f64;
    for r in &results[1..] {
        acc.read_latency.merge(&r.read_latency);
    }
    acc
}

/// Runs with access to the system after the run (for Baryon-specific
/// instrumentation like the phase tracker).
pub fn run_with_system(
    params: &Params,
    workload: &Workload,
    kind: ControllerKind,
    prepare: impl FnOnce(&mut System),
) -> (RunResult, System) {
    let mut cfg = SystemConfig::with_controller(params.scale, kind);
    cfg.warmup_insts = params.warmup;
    let mut system = System::new(cfg, workload, params.seed);
    prepare(&mut system);
    let result = system.run(params.insts);
    (result, system)
}

/// Runs a grid of (workload, controller) jobs in parallel worker threads,
/// returning results in job order. The thread count follows
/// `BARYON_BENCH_THREADS` (default: available parallelism, capped at the
/// job count). Every run stays deterministic — parallelism only reorders
/// wall-clock execution, never the per-run streams.
pub fn run_grid(params: &Params, jobs: Vec<(Workload, ControllerKind)>) -> Vec<RunResult> {
    let threads = std::env::var("BARYON_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, jobs.len().max(1));
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|(w, k)| run(params, &w, k)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, RunResult)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let jobs = &jobs;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (w, k) = &jobs[i];
                let result = run(params, w, k.clone());
                tx.send((i, result)).expect("collector alive");
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<RunResult>> = (0..jobs.len()).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every job filled"))
        .collect()
}

/// The standard cache-mode contenders of Fig 9, in plot order.
pub fn fig9_contenders(scale: Scale) -> Vec<(String, ControllerKind)> {
    let baryon = BaryonConfig::default_cache_mode(scale);
    let mut baryon64 = baryon.clone();
    baryon64.geometry = baryon_core::Geometry::baryon_64b();
    vec![
        ("simple".into(), ControllerKind::Simple),
        ("unison".into(), ControllerKind::Unison),
        ("dice".into(), ControllerKind::Dice),
        ("baryon-64b".into(), ControllerKind::Baryon(baryon64)),
        ("baryon".into(), ControllerKind::Baryon(baryon)),
    ]
}

/// Where CSV outputs go: `baryon-results/` at the workspace root (bench
/// binaries run with the package directory as CWD, and anything under
/// `target/` may be garbage-collected by cargo). Overridable via
/// `BARYON_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("BARYON_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("baryon-results")
        });
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file into the results directory.
pub fn write_csv(id: &str, header: &str, rows: &[String]) {
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = results_dir().join(format!("{id}.csv"));
    fs::write(&path, body).expect("write csv");
    println!("\n[{} rows written to {}]", rows.len(), path.display());
}

/// A simple progress banner.
pub fn banner(id: &str, what: &str) {
    println!("==========================================================");
    println!("  {id}: {what}");
    println!("==========================================================");
}

/// Formats elapsed time for progress lines.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    eprintln!("    [{label}: {:.1}s]", t0.elapsed().as_secs_f32());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_default() {
        let p = Params::from_env();
        assert!(p.insts > 0);
        assert_eq!(p.scale.divisor, 256);
    }

    #[test]
    fn contenders_cover_fig9() {
        let names: Vec<String> = fig9_contenders(Scale::default())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["simple", "unison", "dice", "baryon-64b", "baryon"]);
    }

    #[test]
    fn representative_subset_nonempty() {
        let p = Params {
            insts: 1,
            warmup: 0,
            scale: Scale::default(),
            quick: false,
            seed: 1,
        };
        assert_eq!(p.representative().len(), 6);
        assert!(p.workloads().len() >= 15);
    }

    #[test]
    fn quick_mode_reduces() {
        let p = Params {
            insts: 1,
            warmup: 0,
            scale: Scale::default(),
            quick: true,
            seed: 1,
        };
        assert_eq!(p.workloads().len(), 4);
    }

    #[test]
    fn average_runs_means_counters() {
        let p = Params {
            insts: 2_000,
            warmup: 0,
            scale: Scale { divisor: 2048 },
            quick: true,
            seed: 1,
        };
        let w = baryon_workloads::by_name("505.mcf_r", p.scale).expect("workload");
        let a = run(&p, &w, ControllerKind::Simple);
        let b = {
            let mut p2 = p;
            p2.seed = 2;
            run(&p2, &w, ControllerKind::Simple)
        };
        let avg = average_runs(vec![a.clone(), b.clone()]);
        assert_eq!(avg.total_cycles, (a.total_cycles + b.total_cycles) / 2);
        assert_eq!(
            avg.read_latency.count(),
            a.read_latency.count() + b.read_latency.count()
        );
    }

    #[test]
    fn smoke_run() {
        let p = Params {
            insts: 3_000,
            warmup: 1_000,
            scale: Scale { divisor: 2048 },
            quick: true,
            seed: 1,
        };
        let w = baryon_workloads::by_name("505.mcf_r", p.scale).expect("workload");
        let r = run(&p, &w, ControllerKind::Simple);
        assert!(r.total_cycles > 0);
    }
}
