//! Fig 11: performance analysis on representative workloads (cache mode):
//! left — fast-memory serve rate (higher is better); right — fast-memory
//! bandwidth bloat factor (total fast traffic / useful LLC traffic, lower
//! is better). Includes the geomean over the full suite, as the paper does,
//! plus a read-latency distribution table (p50/p95/p99) that the paper's
//! serve-rate argument implies but does not plot.

use super::{print_table, Body, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::metrics::RunResult;
use baryon_sim::summary::geomean;
use baryon_workloads::registry;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig11",
    blurb: "Fig 11: fast-memory serve rate and bandwidth bloat",
    header: "metric,workload,unison,dice,baryon",
    body: Body::Runs { spec, reduce },
};

/// The paper compares Unison / DICE / Baryon here.
const CONTENDERS: [&str; 3] = ["unison", "dice", "baryon"];

/// The workloads the figure reads, in registry order: the suite (for the
/// geomeans) and the representative rows, which quick mode does not
/// cover.
fn workloads(p: &Params) -> Vec<&'static str> {
    let read: Vec<_> = p
        .workloads()
        .into_iter()
        .chain(p.representative())
        .collect();
    let all = registry(p.scale).into_iter().map(|w| w.name);
    all.filter(|w| read.iter().any(|r| r.name == *w)).collect()
}

/// Every contender on every workload the figure reads, workloads outer.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let workloads = workloads(p);
    let cells = workloads
        .iter()
        .flat_map(|w| CONTENDERS.map(|ctrl| p.cell(w, ctrl, knobs!())));
    cells.collect()
}

/// The per-workload metrics, each with a geomean row over the suite.
const METRICS: [Metric; 2] = [
    ("serve", |r| r.serve.fast_serve_rate()),
    ("bloat", |r| r.serve.bloat_factor()),
];

type Metric = (&'static str, fn(&RunResult) -> f64);

/// Prints the serve-rate, bloat and latency tables and returns their CSV
/// rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let names = workloads(p);
    let of = |w: &str| {
        let i = names.iter().position(|n| *n == w).expect("workload ran");
        &results[i * CONTENDERS.len()..][..CONTENDERS.len()]
    };
    let mut rows = Vec::new();
    for (metric, value) in METRICS {
        for w in p.representative() {
            let v: Vec<String> = of(w.name)
                .iter()
                .map(|r| format!("{:.4}", value(r)))
                .collect();
            rows.push(format!("{metric},{},{}", w.name, v.join(",")));
        }
        // Geomean over the whole suite.
        let g: Vec<String> = (0..CONTENDERS.len())
            .map(|c| {
                let suite = p.workloads();
                let vals: Vec<f64> = suite
                    .iter()
                    .map(|w| value(&of(w.name)[c]).max(1e-9))
                    .collect();
                format!("{:.4}", geomean(&vals).unwrap_or(0.0))
            })
            .collect();
        rows.push(format!("{metric},geomean,{}", g.join(",")));
    }
    for w in p.representative() {
        let v: Vec<String> = of(w.name)
            .iter()
            .map(|r| {
                let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|q| r.read_latency.percentile(q));
                format!("{p50}/{p95}/{p99}")
            })
            .collect();
        rows.push(format!("latency,{},{}", w.name, v.join(",")));
    }
    print_table(FIGURE.header, &rows);
    println!("\npaper shape: Baryon has the highest serve rates (e.g. pr.twi 77% vs");
    println!("37%/44% for Unison/DICE) and the lowest bloat (pr.twi 1.8 vs 3.2/2.4).");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::execute_all;
    use baryon_workloads::Scale;

    /// The quick set is 4 workloads, but the figure prints the 6
    /// representative rows: every printed row must have been run.
    #[test]
    fn quick_mode_runs_every_printed_row() {
        let p = Params {
            insts: 300,
            warmup: 100,
            scale: Scale { divisor: 2048 },
            quick: true,
            seed: 42,
        };
        let specs = spec(&p);
        assert_eq!(specs.len(), 6 * CONTENDERS.len());
        let rows = reduce(&p, &execute_all(&specs).expect("runs"));
        // Serve and bloat: 6 rows + geomean each; latency: 6 rows.
        assert_eq!(rows.len(), 2 * (6 + 1) + 6);
        assert!(rows.iter().any(|r| r.starts_with("serve,resnet50,")));
    }
}
