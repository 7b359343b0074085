//! Fig 3: access-type breakdown with the stage area.
//!
//! (a) Access classes (hit / sub-block miss / write overflow) for blocks in
//!     their stage phase ("S") vs after commit ("C"), at the default stage
//!     size. The paper shows misses and overflows dropping sharply after
//!     commit (to <5% and <1% on average).
//! (b) The same committed-phase breakdown for different stage-area sizes.
//!
//! Measurement note (see EXPERIMENTS.md): the paper samples windows around
//! each stage/commit event of its 5-billion-instruction runs; at this
//! scale the unbiased equivalent is the steady-state ratio conditioned on
//! the block's phase — S = case-1 hits vs case-3 misses vs stage
//! overflows, C = case-2 hits vs case-4 bypasses vs committed overflows.

use super::{next, print_table, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_core::config::BaryonConfig;
use baryon_core::metrics::RunResult;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig3",
    title: "stage (S) vs committed (C) access breakdown",
    header: "panel,workload,stage,s_hit,s_miss,s_ovf,c_hit,c_miss,c_ovf",
    spec,
    reduce,
};

/// Panel (b)'s stage sizes as divisors of the default. The paper sweeps
/// 16/32/64/128 MB at 4 GB fast; these are the same fractions (x0.25,
/// x0.5, x1).
const STAGE_DIVISORS: [u64; 3] = [4, 2, 1];

const STAGED: [&str; 3] = ["case1_stage_hits", "case3_stage_misses", "stage_overflows"];
const COMMITTED: [&str; 3] = ["case2_commit_hits", "case4_bypasses", "committed_overflows"];

/// The SPEC subset, as in the paper.
fn spec_workloads(p: &Params) -> Vec<&'static str> {
    let all = p.workloads().into_iter().map(|w| w.name);
    all.filter(|w| w.as_bytes()[0].is_ascii_digit()).collect()
}

fn stage_bytes(p: &Params, divisor: u64) -> u64 {
    BaryonConfig::default_stage_bytes(p.scale) / divisor
}

/// Panel (a) at the default stage, then panel (b) per workload and size.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    // Committed-phase statistics need committed blocks to be *re-used*:
    // the streaming workloads only wrap their arrays after ~2-3x the
    // default instruction budget, so this figure runs longer than the rest.
    let long = Params {
        insts: p.insts * 3,
        ..*p
    };
    let workloads = spec_workloads(p);
    let mut cells: Vec<RunSpec> = workloads
        .iter()
        .map(|w| long.cell(w, "baryon", knobs!()))
        .collect();
    for w in &workloads {
        for divisor in STAGE_DIVISORS {
            let stage = knobs!(stage_bytes: stage_bytes(p, divisor));
            cells.push(long.cell(w, "baryon", stage));
        }
    }
    cells
}

/// The three counters as percentages of their sum (0 when all are 0),
/// CSV-formatted.
fn breakdown(r: &RunResult, names: [&str; 3]) -> String {
    let counts = names.map(|name| r.counter(&format!("ctrl.{name}")));
    let total = counts.iter().sum::<u64>();
    let pct = |n: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * n as f64 / total as f64
        }
    };
    let [a, b, c] = counts.map(pct);
    format!("{a:.2},{b:.2},{c:.2}")
}

/// Prints both panels and returns their CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let mut results = results.iter();
    let workloads = spec_workloads(p);
    let mut rows = Vec::new();
    for w in &workloads {
        let r = next(&mut results);
        let (s, c) = (breakdown(r, STAGED), breakdown(r, COMMITTED));
        rows.push(format!("a,{w},default,{s},{c}"));
    }
    for w in &workloads {
        for divisor in STAGE_DIVISORS {
            let label = format!("{}kB", stage_bytes(p, divisor) >> 10);
            let c = breakdown(next(&mut results), COMMITTED);
            rows.push(format!("b,{w},{label},,,,{c}"));
        }
    }
    print_table(FIGURE.header, &rows);
    println!("\npaper shape: committed phases have far fewer misses/overflows than");
    println!("stage phases, and larger stage areas further reduce them.");
    rows
}
