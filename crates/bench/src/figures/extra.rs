//! Beyond-the-figures ablations the paper reports in prose or discusses in
//! §III-F, on the representative subset (normalized to default Baryon):
//!
//! * **compressed fast-to-slow writeback** on/off — the paper reports the
//!   optimization saving 7.2% slow-memory bandwidth and 3.1% performance;
//! * **cache-area associativity** 1/2/4/8 and fully-associative (§III-F
//!   "supporting high associativities");
//! * **victim policy** LRU / FIFO / random (§III-E calls these orthogonal);
//! * **C-Pack as a third compressor** (§III-B "alternative schemes");
//! * the **static mixed cache + flat partition** (§III-A) across flat
//!   fractions;
//! * **related design points**: the OS page-migration strawman of §II-A
//!   and the micro-sector cache of §V.

use super::{next, print_table, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::config::VictimPolicy;
use baryon_core::metrics::RunResult;
use baryon_core::Knobs;
use baryon_sim::summary::geomean;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "extra",
    title: "prose claims and §III-F discussions",
    header: "variant,rel_perf,rel_slow_traffic",
    spec,
    reduce,
};

/// The Baryon ablations as `(label, knobs)`; the first, `default`, is
/// every workload's baseline.
const VARIANTS: [(&str, Knobs); 11] = [
    ("default", knobs!()),
    (
        "no-compressed-writeback",
        knobs!(compressed_writeback: false),
    ),
    ("cpack", knobs!(use_cpack: true)),
    ("policy-fifo", knobs!(victim_policy: VictimPolicy::Fifo)),
    ("policy-random", knobs!(victim_policy: VictimPolicy::Random)),
    ("policy-clock", knobs!(victim_policy: VictimPolicy::Clock)),
    ("policy-lfu", knobs!(victim_policy: VictimPolicy::Lfu)),
    ("assoc-1", knobs!(assoc: 1)),
    ("assoc-2", knobs!(assoc: 2)),
    ("assoc-8", knobs!(assoc: 8)),
    ("assoc-full", knobs!(assoc: usize::MAX)),
];

/// §III-A's static cache + flat combination as `(label, controller,
/// knobs)`, pure flat first (the normalization baseline).
const PARTITIONS: [(&str, &str, Knobs); 4] = [
    ("flat-1.00", "baryon-fa", knobs!()),
    ("mixed-0.75", "baryon-mixed", knobs!(flat_fraction: 0.75)),
    ("mixed-0.50", "baryon-mixed", knobs!(flat_fraction: 0.5)),
    ("mixed-0.25", "baryon-mixed", knobs!(flat_fraction: 0.25)),
];

/// Design points beyond the paper's evaluated baselines (§II-A's OS-based
/// strawman and §V's micro-sector cache), compared against Baryon.
const DESIGN_POINTS: [&str; 3] = ["os-paging", "micro-sector", "baryon"];

/// The ablations and the partitions (each on every representative
/// workload), then the design points (workloads outer).
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let subset = p.representative();
    let points = VARIANTS.iter().map(|(_, k)| ("baryon", *k));
    let points = points.chain(PARTITIONS.iter().map(|(_, ctrl, k)| (*ctrl, *k)));
    let mut cells: Vec<RunSpec> = points
        .flat_map(|(ctrl, k)| subset.iter().map(move |w| p.cell(w.name, ctrl, k)))
        .collect();
    for w in &subset {
        cells.extend(DESIGN_POINTS.map(|ctrl| p.cell(w.name, ctrl, knobs!())));
    }
    cells
}

/// Geomean of `f(base, run)` over paired per-workload runs.
fn geo(base: &[RunResult], runs: &[RunResult], f: impl Fn(&RunResult, &RunResult) -> f64) -> f64 {
    let vals: Vec<f64> = base.iter().zip(runs).map(|(b, r)| f(b, r)).collect();
    geomean(&vals).unwrap_or(0.0)
}

/// Prints the three tables and returns their CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let n = p.representative().len();
    let cycles = |b: &RunResult, r: &RunResult| b.total_cycles as f64 / r.total_cycles as f64;
    let mut chunks = results.chunks(n);
    let mut rows = Vec::new();
    let base = &results[..n];
    for (label, _) in VARIANTS {
        let runs = chunks.next().expect("one chunk per variant");
        let gp = geo(base, runs, cycles);
        let gt = geo(base, runs, |b, r| {
            r.serve.slow_bytes as f64 / b.serve.slow_bytes.max(1) as f64
        });
        rows.push(format!("{label},{gp:.4},{gt:.4}"));
    }
    let flat = &results[VARIANTS.len() * n..][..n];
    for (label, _, _) in PARTITIONS {
        let runs = chunks.next().expect("one chunk per partition");
        rows.push(format!("mixed,{label},{:.4}", geo(flat, runs, cycles)));
    }
    let mut results = results[(VARIANTS.len() + PARTITIONS.len()) * n..].iter();
    let mut speedups: [Vec<f64>; 2] = Default::default();
    for w in p.representative() {
        let [os, ms, ba] = DESIGN_POINTS.map(|_| next(&mut results).total_cycles as f64);
        let (s_ms, s_ba) = (os / ms, os / ba);
        speedups[0].push(s_ms);
        speedups[1].push(s_ba);
        rows.push(format!("design_points,{},{s_ms:.4},{s_ba:.4}", w.name));
    }
    let [g_ms, g_ba] = speedups.map(|s| geomean(&s).unwrap_or(0.0));
    rows.push(format!("design_points,geomean,{g_ms:.4},{g_ba:.4}"));
    print_table(FIGURE.header, &rows);
    println!("\n(mixed rows: geomean speedup over pure flat; design_points rows: speedup");
    println!(" of micro-sector and Baryon over os-paging)");
    println!("\npaper prose: removing compressed writeback should cost ~3.1%");
    println!("performance and ~7.2% slow bandwidth; higher associativity helps");
    println!("conflict misses; the victim policy is a second-order effect.");
    rows
}
