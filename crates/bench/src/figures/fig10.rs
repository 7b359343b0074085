//! Fig 10: flat-mode performance — fully-associative Baryon (Baryon-FA)
//! vs Hybrid2, normalized to Hybrid2.
//!
//! The paper reports 1.18x average and up to 2.50x.

use super::{next, print_table, Body, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::metrics::RunResult;
use baryon_sim::summary::geomean;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig10",
    blurb: "Fig 10: flat mode — Baryon-FA over Hybrid2",
    header: "workload,hybrid2_cycles,baryon_fa_cycles,speedup",
    body: Body::Runs { spec, reduce },
};

/// Hybrid2 then Baryon-FA on every workload.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let workloads = p.workloads();
    let cells = workloads
        .iter()
        .flat_map(|w| ["hybrid2", "baryon-fa"].map(|ctrl| p.cell(w.name, ctrl, knobs!())));
    cells.collect()
}

/// Prints the speedup table and returns its CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let mut results = results.iter();
    let mut speedups = Vec::new();
    let mut rows = Vec::new();
    for w in p.workloads() {
        let h = next(&mut results).total_cycles;
        let b = next(&mut results).total_cycles;
        let s = h as f64 / b as f64;
        speedups.push(s);
        rows.push(format!("{},{h},{b},{s:.4}", w.name));
    }
    let g = geomean(&speedups).unwrap_or(0.0);
    rows.push(format!("geomean,,,{g:.4}"));
    print_table(FIGURE.header, &rows);
    let max = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!("\ngeomean {g:.3}x, max {max:.3}x  (paper: 1.18x avg, 2.50x max)");
    rows
}
