#![warn(missing_docs)]

//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Every run goes through [`spec::RunSpec`]. A paper figure is a module of
//! [`figures`]: its `spec` lists the runs the figure needs, each a
//! workload × controller × sparse [`baryon_core::Knobs`] overlay, and its
//! `reduce` turns the finished results into the figure's table and CSV
//! rows. [`spec::execute_all`] runs every list in process. Each `cargo
//! bench` target under `benches/` prints one table or figure of the
//! evaluation section (see DESIGN.md §3 for the index) and writes a
//! machine-readable copy to `baryon-results/<id>.csv`.
//!
//! Knobs (environment variables):
//!
//! * `BARYON_BENCH_INSTS` — measured instructions per core (default 150000),
//! * `BARYON_BENCH_WARMUP` — warm-up instructions per core (default 50000),
//! * `BARYON_BENCH_SCALE` — capacity divisor vs the paper (default 256),
//! * `BARYON_BENCH_SEED` — seed shared by all runs (default 42),
//! * `BARYON_BENCH_QUICK` — if set, runs a reduced workload set.

pub mod figures;
pub mod spec;

use baryon_core::Knobs;
use baryon_workloads::{registry, Scale, Workload};
use spec::RunSpec;
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

    /// One figure cell: `workload` under `controller` with `knobs`, at
    /// these parameters.
    pub fn cell(&self, workload: &str, controller: &str, knobs: Knobs) -> RunSpec {
        RunSpec {
            workload: workload.to_owned(),
            controller: controller.to_owned(),
            insts: self.insts,
            warmup: self.warmup,
            scale: self.scale.divisor,
            seed: self.seed,
            knobs,
            ..RunSpec::default()
        }
    }
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

/// The CSV text of `rows` under `header`, one line each.
pub fn csv_text(header: &str, rows: &[String]) -> String {
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    body
}

/// Writes a CSV file into the results directory.
pub fn write_csv(id: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(format!("{id}.csv"));
    fs::write(&path, csv_text(header, rows)).expect("write csv");
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
    fn cells_carry_the_params() {
        let p = Params {
            insts: 7,
            warmup: 3,
            scale: Scale { divisor: 2048 },
            quick: false,
            seed: 9,
        };
        let knobs = Knobs {
            zero_opt: Some(false),
            ..Knobs::default()
        };
        let cell = p.cell("ycsb-a", "baryon", knobs);
        assert_eq!(
            (cell.insts, cell.warmup, cell.scale, cell.seed),
            (7, 3, 2048, 9)
        );
        assert_eq!(cell.knobs, knobs);
        cell.validate().expect("a figure cell is a valid spec");
    }
}
