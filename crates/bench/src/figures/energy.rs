//! §IV-B energy comparison: memory-system energy of Baryon vs the cache-
//! and flat-mode baselines.
//!
//! The paper reports Baryon saving 31.9% vs Unison Cache, 13.0% vs DICE,
//! and Baryon-FA saving 14.5% vs Hybrid2, mostly from reduced slow-memory
//! traffic.

use super::{next, print_table, Body, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::metrics::RunResult;
use baryon_sim::summary::geomean;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "energy",
    blurb: "§IV-B: memory-system energy",
    header: "mode,workload,a,b,c",
    body: Body::Runs { spec, reduce },
};

/// `(mode, contenders)`: Baryon is the last contender of each mode.
const MODES: [(&str, &[&str]); 2] = [
    ("cache", &["unison", "dice", "baryon"]),
    ("flat", &["hybrid2", "baryon-fa"]),
];

/// Each mode's contenders on every workload, modes outer.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for (_, ctrls) in MODES {
        for w in p.workloads() {
            cells.extend(ctrls.iter().map(|c| p.cell(w.name, c, knobs!())));
        }
    }
    cells
}

/// Prints both energy tables and the savings summary and returns their
/// CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let mut results = results.iter();
    let mut rows = Vec::new();
    // Baryon's energy over each baseline's, per workload.
    let mut ratios: [Vec<f64>; 3] = Default::default();
    for (mode, ctrls) in MODES {
        for w in p.workloads() {
            let mj: Vec<f64> = ctrls
                .iter()
                .map(|_| next(&mut results).energy_mj())
                .collect();
            let baryon = mj[mj.len() - 1];
            let baselines = if mode == "cache" {
                &mut ratios[..2]
            } else {
                &mut ratios[2..]
            };
            for (ratio, base) in baselines.iter_mut().zip(&mj) {
                ratio.push(baryon / base);
            }
            let cells: Vec<String> = mj.iter().map(|e| format!("{e:.4}")).collect();
            let pad = if mode == "flat" { "," } else { "" };
            rows.push(format!("{mode},{},{}{pad}", w.name, cells.join(",")));
        }
    }
    let keys = [("vs_unison", 31.9), ("vs_dice", 13.0), ("vs_hybrid2", 14.5)];
    let savings: Vec<f64> = ratios.iter().map(|r| geomean(r).unwrap_or(1.0)).collect();
    for ((key, _), g) in keys.iter().zip(&savings) {
        rows.push(format!("summary,{key},{g:.4},,"));
    }
    print_table(FIGURE.header, &rows);
    println!();
    for ((key, paper), g) in keys.iter().zip(&savings) {
        let saved = (g - 1.0) * 100.0;
        println!("baryon {key:<11}: {saved:+.1}% (paper: -{paper:.1}%)");
    }
    rows
}
