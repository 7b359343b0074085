//! Fig 13: design-parameter exploration, all normalized to the default
//! Baryon configuration on the representative subset:
//!
//! (a) two-level replacement vs sub-block-only replacement (paper: ~25%
//!     degradation without block-level replacements),
//! (b) super-block size in blocks (2/4/8/16/32; paper: 8 is sufficient,
//!     very large sizes can hurt, e.g. mcf -50%),
//! (c) stage-area size sweep including no-stage (paper: no stage loses
//!     34.5% on average; larger stage helps up to ~64 MB),
//! (d) selective-commit parameter k in {0, 1, 2, 4, inf} plus commit-all.

use super::{print_table, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::config::BaryonConfig;
use baryon_core::metrics::RunResult;
use baryon_core::Knobs;
use baryon_sim::summary::geomean;

/// The figure. Its columns are the representative workloads.
pub const FIGURE: Figure = Figure {
    id: "fig13",
    title: "design-parameter exploration (normalized to default)",
    header: "panel,variant,505.mcf_r,520.omnetpp_r,549.fotonik3d_r,pr.twi,resnet50,ycsb-a,geomean",
    spec,
    reduce,
};

/// Every `(panel, label, knobs)` point; the first, `default`, is every
/// workload's baseline.
fn variants(p: &Params) -> Vec<(&'static str, String, Knobs)> {
    let mut v = vec![
        ("a", "default".to_owned(), knobs!()),
        (
            "a",
            "sub-block-only".to_owned(),
            knobs!(two_level_replacement: false),
        ),
    ];
    for bps in [2u64, 4, 8, 16, 32] {
        v.push((
            "b",
            format!("superblock-{bps}"),
            knobs!(blocks_per_super: bps),
        ));
    }
    let default_stage = BaryonConfig::default_stage_bytes(p.scale);
    for frac in [0u64, 8, 4, 2, 1] {
        let (label, bytes) = match default_stage.checked_div(frac) {
            None => ("no-stage".to_owned(), 0),
            Some(b) => (format!("stage-{}kB", b >> 10), b),
        };
        v.push(("c", label, knobs!(stage_bytes: bytes)));
    }
    for (label, k) in [
        ("0", 0.0),
        ("1", 1.0),
        ("2", 2.0),
        ("4", 4.0),
        ("inf", f64::INFINITY),
    ] {
        v.push(("d", format!("k={label}"), knobs!(commit_k: k)));
    }
    v.push(("d", "commit-all".to_owned(), knobs!(commit_all: true)));
    v
}

/// Every variant on every representative workload, variants outer.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let subset = p.representative();
    let variants = variants(p);
    let cells = variants
        .iter()
        .flat_map(|(_, _, k)| subset.iter().map(|w| p.cell(w.name, "baryon", *k)));
    cells.collect()
}

/// Prints the normalized table and returns its CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let runs: Vec<&[RunResult]> = results.chunks(p.representative().len()).collect();
    let mut rows = Vec::new();
    for ((panel, label, _), variant) in variants(p).iter().zip(&runs) {
        let perfs: Vec<f64> = (runs[0].iter().zip(*variant))
            .map(|(base, r)| base.total_cycles as f64 / r.total_cycles as f64)
            .collect();
        let cells: String = perfs.iter().map(|perf| format!(",{perf:.4}")).collect();
        let g = geomean(&perfs).unwrap_or(0.0);
        rows.push(format!("{panel},{label}{cells},{g:.4}"));
    }
    print_table(FIGURE.header, &rows);
    println!("\npaper shape: (a) sub-block-only loses ~25%; (b) 8-block super-blocks");
    println!("suffice and 32 can hurt; (c) no stage loses 34.5% avg; (d) k=1..4 are");
    println!("similar and beat k=0, k=inf, and commit-all.");
    rows
}
