//! Fig 12: impact of the compression-scheme choices on performance and
//! compression factor, on the representative subset:
//!
//! * the zero-block (`Z` bit) optimization on/off,
//! * cacheline-aligned compression on/off,
//! * decompression latency 0/1/5/10 cycles,
//! * the aligned same-CF range restriction: achieved CF vs an offline
//!   per-chunk ideal (the metadata-free upper bound; see EXPERIMENTS.md).

use super::{next, print_table, Figure};
use crate::spec::RunSpec;
use crate::Params;
use baryon_compress::{best_compressed_size, Cf, RangeCompressor};
use baryon_core::metrics::RunResult;
use baryon_core::Knobs;
use baryon_sim::summary::geomean;
use baryon_workloads::Workload;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig12",
    title: "compression-scheme ablations (performance and CF)",
    header: "workload,variant,cycles,rel_perf,avg_cf",
    spec,
    reduce,
};

/// The ablations as `(label, knobs)`, `default` first (it is every
/// workload's baseline).
const VARIANTS: [(&str, Knobs); 6] = [
    ("default", knobs!()),
    ("no-zero-opt", knobs!(zero_opt: false)),
    ("no-cacheline-aligned", knobs!(cacheline_aligned: false)),
    ("decompress-0cyc", knobs!(decompress_cycles: 0)),
    ("decompress-1cyc", knobs!(decompress_cycles: 1)),
    ("decompress-10cyc", knobs!(decompress_cycles: 10)),
];

/// Every variant on every representative workload, workloads outer.
pub fn spec(p: &Params) -> Vec<RunSpec> {
    let subset = p.representative();
    let cells = subset
        .iter()
        .flat_map(|w| VARIANTS.map(|(_, k)| p.cell(w.name, "baryon", k)));
    cells.collect()
}

/// Prints the ablation table and the offline CF scan and returns their
/// CSV rows.
pub fn reduce(p: &Params, results: &[RunResult]) -> Vec<String> {
    let mut results = results.iter();
    let subset = p.representative();
    let mut rows = Vec::new();
    let mut perfs: [Vec<f64>; 6] = Default::default();
    for w in &subset {
        let runs = VARIANTS.map(|_| next(&mut results));
        for ((label, _), (r, perf)) in VARIANTS.iter().zip(runs.iter().zip(&mut perfs)) {
            let cycles = r.total_cycles;
            let rel = runs[0].total_cycles as f64 / cycles as f64;
            let cf = r.telemetry.gauge("ctrl.avg_cf");
            perf.push(rel);
            rows.push(format!("{},{label},{cycles},{rel:.4},{cf:.3}", w.name));
        }
    }
    for ((label, _), perf) in VARIANTS.iter().zip(&perfs) {
        let g = geomean(perf).unwrap_or(0.0);
        rows.push(format!("geomean,{label},,{g:.4},"));
    }
    // The offline scan: Baryon's achievable CF vs the per-chunk ideal.
    for w in &subset {
        let (restricted, ideal) = cf_restriction(w, p.seed);
        rows.push(format!(
            "cf_restriction,{},{restricted:.3},{ideal:.3},",
            w.name
        ));
    }
    print_table(FIGURE.header, &rows);
    println!("\n(cf_restriction rows: Baryon CF, ideal CF; the gap is the CF lost to");
    println!(" the aligned same-CF metadata format; the paper reports the resulting");
    println!(" performance loss stays <= 12%)");
    rows
}

/// The aligned same-CF restriction's CF upper bound, by an offline scan
/// (not a run): for each sampled 2 kB block, the ideal CF treats every
/// 64 B chunk independently (size 64/32/16 -> factor 1/2/4), with no
/// alignment or uniform-CF restriction; Baryon's achievable CF groups
/// chunks into aligned ranges sharing one CF. Returns `(baryon, ideal)`.
fn cf_restriction(w: &Workload, seed: u64) -> (f64, f64) {
    let mem = w.contents(seed);
    let mut ideal_slots = 0f64;
    let mut restricted_slots = 0f64;
    let blocks = 512u64;
    let rc = RangeCompressor::cacheline_aligned();
    for b in 0..blocks {
        let addr = (b * 7919) % (w.footprint / 2048) * 2048;
        for sub4 in 0..2u64 {
            let window = mem.range(addr + sub4 * 1024, 1024);
            // Ideal: each 64 B chunk compresses independently.
            for chunk in window.chunks_exact(64) {
                let s = best_compressed_size(chunk);
                ideal_slots += if s <= 16 {
                    0.25
                } else if s <= 32 {
                    0.5
                } else {
                    1.0
                };
            }
            // Restricted: Baryon's aligned uniform-CF ranges.
            if rc.fits(&window, Cf::X4) {
                restricted_slots += 4.0; // 16 lines in 4 slots of 4 lines
            } else {
                for half in window.chunks_exact(512) {
                    if rc.fits(half, Cf::X2) {
                        restricted_slots += 4.0; // 8 lines in 4 x 0.5
                    } else {
                        restricted_slots += 8.0;
                    }
                }
            }
        }
    }
    // Both costs are in 64 B line-slots; CF = raw lines / line-slots.
    let lines = blocks as f64 * 32.0;
    (
        lines / restricted_slots.max(1.0),
        lines / ideal_slots.max(1.0),
    )
}
