//! Fig 4: stage-area miss-ratio distribution across the (normalized)
//! stage phase of sampled blocks.
//!
//! The paper samples 1k blocks, normalizes each block's stage phase to
//! x in [0, 1], and shows box plots (25/75 quartiles, 5/95 whiskers) of the
//! stage-area MPKI per time bucket: misses start high and drop by an order
//! of magnitude before the phase midpoint.
//!
//! The phase tracker lives in the controller, not in the run's result, so
//! this figure builds each system from its spec and reads the tracker
//! after the run.

use super::{print_table, Body, Figure};
use crate::{timed, Params};
use baryon_core::controller::phase::PHASE_BUCKETS;
use baryon_sim::summary::BoxSummary;

/// The figure.
pub const FIGURE: Figure = Figure {
    id: "fig4",
    blurb: "Fig 4: stage-phase miss-rate distribution (normalized time)",
    header: "x,p5,p25,p50,p75,p95,samples",
    body: Body::Systems(rows),
};

/// Runs default Baryon on the representative subset (a mixed sample
/// across the suite, as the paper aggregates workloads) with phase
/// tracking on, prints the distribution and returns the CSV rows.
///
/// # Errors
///
/// The first spec that fails to build.
pub fn rows(p: &Params) -> Result<Vec<String>, String> {
    let mut all_buckets: [Vec<f64>; PHASE_BUCKETS] = Default::default();
    let (mut committed, mut evicted) = (0usize, 0usize);
    for w in p.representative() {
        let spec = p.cell(w.name, "baryon", knobs!());
        let mut system = spec.build_system()?;
        let ctrl = system.controller_mut().as_baryon_mut().expect("baryon");
        ctrl.enable_phase_tracking(64, 1_000);
        timed(&spec.workload, || system.run(spec.insts));
        let tracker = system
            .controller()
            .as_baryon()
            .expect("baryon")
            .phase_tracker();
        for (acc, r) in all_buckets.iter_mut().zip(tracker.bucket_miss_ratios()) {
            acc.extend(r);
        }
        let ended_in_commit = tracker.phases().iter().filter(|p| p.committed).count();
        committed += ended_in_commit;
        evicted += tracker.phases().len() - ended_in_commit;
    }

    let mut rows = Vec::new();
    let mut medians = Vec::new();
    for (i, bucket) in all_buckets.iter().enumerate() {
        let x = (i as f64 + 0.5) / PHASE_BUCKETS as f64;
        if let Some(b) = BoxSummary::from_values(bucket) {
            let (p5, p25, p50, p75, p95) = (b.p5, b.p25, b.p50, b.p75, b.p95);
            let n = bucket.len();
            rows.push(format!(
                "{x:.2},{p5:.5},{p25:.5},{p50:.5},{p75:.5},{p95:.5},{n}"
            ));
            medians.push((i, b.p50.max(1e-4)));
        }
    }
    print_table(FIGURE.header, &rows);
    let median_at = |i| medians.iter().find(|(j, _)| *j == i).map_or(0.0, |m| m.1);
    println!(
        "\nmedian miss ratio drops {:.1}x from the first to the last bucket",
        median_at(0) / median_at(PHASE_BUCKETS - 1)
    );
    println!("\nphases ending in commit: {committed}; ending in eviction: {evicted}");
    println!("(the paper's selective-commit policy exists exactly because the");
    println!(" evicted minority keeps missing through its whole phase — the");
    println!(" p95 whisker above)");
    println!("\npaper shape: an order-of-magnitude drop, stabilizing past x = 0.5,");
    println!("with a high 95% tail (the unstable blocks motivating selective commit).");
    Ok(rows)
}
