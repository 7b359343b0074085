//! Fig 9: cache-mode performance of Simple / Unison Cache / DICE /
//! Baryon-64B / Baryon across the workload suite, normalized to Simple.
//!
//! The paper reports Baryon at 1.38x (up to 2.46x) over Unison Cache and
//! 1.27x (up to 1.68x) over DICE on geomean.

use super::{next, print_table, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::metrics::RunResult;
use baryon_core::Knobs;
use baryon_sim::summary::geomean;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig9",
    title: "cache-mode speedups normalized to Simple",
    header: "workload,simple,unison,dice,baryon_64b,baryon",
    spec,
    reduce,
};

/// The cache-mode contenders in plot order: `(controller, knobs)`.
const CONTENDERS: [(&str, Knobs); 5] = [
    ("simple", knobs!()),
    ("unison", knobs!()),
    ("dice", knobs!()),
    ("baryon", knobs!(sub_bytes: 64)),
    ("baryon", knobs!()),
];

/// Every contender on every workload, workloads outer.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let workloads = p.workloads();
    let cells = workloads
        .iter()
        .flat_map(|w| CONTENDERS.map(|(ctrl, k)| p.cell(w.name, ctrl, k)));
    cells.collect()
}

/// Prints the speedup table and returns its CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let mut results = results.iter();
    let mut speedups: [Vec<f64>; 5] = Default::default();
    let mut rows = Vec::new();
    for w in p.workloads() {
        let cycles = CONTENDERS.map(|_| next(&mut results).total_cycles as f64);
        let mut csv = w.name.to_owned();
        for (s, c) in speedups.iter_mut().zip(cycles) {
            s.push(cycles[0] / c);
            csv.push_str(&format!(",{:.4}", cycles[0] / c));
        }
        rows.push(csv);
    }
    let [s, u, d, b64, b] = speedups.map(|s| geomean(&s).unwrap_or(0.0));
    rows.push(format!("geomean,{s:.4},{u:.4},{d:.4},{b64:.4},{b:.4}"));
    print_table(FIGURE.header, &rows);
    println!(
        "\nBaryon vs Unison Cache : {:.2}x (paper: 1.38x avg, 2.46x max)",
        b / u
    );
    println!(
        "Baryon vs DICE         : {:.2}x (paper: 1.27x avg, 1.68x max)",
        b / d
    );
    println!(
        "Baryon vs Baryon-64B   : {:.2}x (paper: +12.2% from the 256 B granularity)",
        b / b64
    );
    rows
}
