//! The traced run's simulator layers: replays timed per layer,
//! the per-subsystem checkpoint split, and the modelled counters.

use crate::ckpt;
use crate::metrics::Report;
use crate::replay::{calibrate_timer_ns, Acc, Layers, Replay, Split};
use crate::stats::median;
use crate::workload::Outcome;
use baryon_bench::spec::RunSpec;
use baryon_core::metrics::RunResult;
use std::time::{Duration, Instant};

/// Replays at most this many rounds.
const MAX_ROUNDS: usize = 200;

/// One round: every cell once through a plain `System::run` and once
/// through the traced replay, back to back, so host-speed drift between
/// the two cancels out of the shares.
struct Round {
    layers: Layers,
    /// Seconds of the plain runs.
    untraced: f64,
    /// Seconds of the traced replays.
    traced: f64,
    /// Clock cost per timed interval, calibrated just before the replays.
    timer_ns: f64,
}

/// Runs rounds for about `budget` (at least one) and records the
/// simulator's per-layer metrics into `out.report`: per-call time, share of
/// the plain run's wall, call counts, the merge loop's remainder, timer
/// cost and tracing overhead; then one split pass at the checkpoint
/// cadence and the modelled counters of `plain`.
///
/// A replay that does not reproduce its plain run marks the layers
/// invalid (`trace.faithful = 0`) without failing the run.
///
/// # Errors
///
/// A cell that fails to build.
pub fn record(
    cells: &[RunSpec],
    plain: &[RunResult],
    budget: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut faithful = true;
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    loop {
        let mut untraced = 0.0;
        for spec in cells {
            let mut system = spec.build_system()?;
            let t = Instant::now();
            std::hint::black_box(system.run(spec.insts));
            untraced += t.elapsed().as_secs_f64();
        }
        let timer_ns = calibrate_timer_ns();
        let mut layers = Layers::default();
        let mut traced = 0.0;
        for (spec, plain) in cells.iter().zip(plain) {
            let replay = Replay::new(spec)?;
            let t = Instant::now();
            let replayed = replay.run(&mut layers, None);
            traced += t.elapsed().as_secs_f64();
            faithful &= replayed.matches(plain);
        }
        rounds.push(Round {
            layers,
            untraced,
            traced,
            timer_ns,
        });
        // Stop before a round that would overrun the budget.
        let next_end = start.elapsed().as_secs_f64() + untraced + traced;
        if next_end > budget.as_secs_f64() || rounds.len() >= MAX_ROUNDS {
            break;
        }
    }

    let n = rounds.len();
    let r = &mut out.report;
    let per_layer = |pick: fn(&Layers) -> Acc| -> (f64, f64, u64) {
        let ns: Vec<f64> = rounds
            .iter()
            .map(|r| pick(&r.layers).corrected_ns(r.timer_ns) / pick(&r.layers).calls.max(1) as f64)
            .collect();
        let share: Vec<f64> = rounds
            .iter()
            .map(|r| pick(&r.layers).corrected_ns(r.timer_ns) / (r.untraced * 1e9))
            .collect();
        (median(&ns), median(&share), pick(&rounds[0].layers).calls)
    };
    let (ns, share, calls) = per_layer(|l| l.next_op);
    r.set("workloads.next_op.ns", ns, n);
    r.set("workloads.next_op.share", share, n);
    r.set("workloads.next_op.calls", calls as f64, 1);
    let (ns, share, _) = per_layer(|l| l.private);
    r.set("cache.private.ns", ns, n);
    r.set("cache.private.share", share, n);
    let (ns, share, _) = per_layer(|l| l.llc);
    r.set("cache.llc.ns", ns, n);
    r.set("cache.llc.share", share, n);
    let (ns, share, calls) = per_layer(|l| l.read);
    r.set("core.ctrl.read.ns", ns, n);
    r.set("core.ctrl.read.share", share, n);
    r.set("core.ctrl.read.calls", calls as f64, 1);
    let (ns, share, calls) = per_layer(|l| l.writeback);
    r.set("core.ctrl.writeback.ns", ns, n);
    r.set("core.ctrl.writeback.share", share, n);
    r.set("core.ctrl.writeback.calls", calls as f64, 1);
    let remainder: Vec<f64> = rounds
        .iter()
        .map(|r| 1.0 - r.layers.corrected_total_ns(r.timer_ns) / (r.untraced * 1e9))
        .collect();
    r.set("core.system.self.share", median(&remainder), n);
    let overhead: Vec<f64> = rounds
        .iter()
        .map(|r| 100.0 * (r.traced / r.untraced - 1.0))
        .collect();
    r.set("trace.overhead_pct", median(&overhead), n);
    let timer: Vec<f64> = rounds.iter().map(|r| r.timer_ns).collect();
    r.set("trace.timer_ns", median(&timer), n);
    r.set("trace.faithful", if faithful { 1.0 } else { 0.0 }, n);
    if !faithful {
        eprintln!(
            "perf: {}: the traced replay no longer reproduces System::run; per-layer numbers are invalid",
            out.workload.name()
        );
        out.layers_valid = false;
    }

    let mut split = Split::default();
    for spec in cells {
        Replay::new(spec)?.run(&mut Layers::default(), Some((&mut split, ckpt::EVERY)));
    }
    let per = split.snapshots.max(1) as f64;
    for (name, part) in [
        ("cache", split.cache),
        ("ctrl", split.ctrl),
        ("contents", split.contents),
        ("gens", split.gens),
    ] {
        r.set(
            &format!("core.checkpoint.split.{name}_us"),
            part.ns as f64 / per / 1e3,
            split.snapshots as usize,
        );
        r.set(
            &format!("core.checkpoint.split.{name}_bytes"),
            part.bytes as f64 / per,
            split.snapshots as usize,
        );
    }
    modelled_counters(plain, r);
    Ok(())
}

/// Exact ratios from the plain runs' counters, summed over cells. They
/// move only when the model does, and explain shifts in the layer times.
fn modelled_counters(plain: &[RunResult], r: &mut Report) {
    let sum = |name: &str| -> f64 { plain.iter().map(|p| p.counter(name) as f64).sum() };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let reads = sum("ctrl.serve.reads");
    let llc_misses = sum("cache.llc.read_misses") + sum("cache.llc.write_misses");
    let llc_hits = sum("cache.llc.read_hits") + sum("cache.llc.write_hits");
    r.set(
        "cache.llc.miss_ratio",
        ratio(llc_misses, llc_misses + llc_hits),
        1,
    );
    let remap_hits = sum("ctrl.remap.cache_hits");
    r.set(
        "core.remap.cache_hit_rate",
        ratio(remap_hits, remap_hits + sum("ctrl.remap.cache_misses")),
        1,
    );
    r.set(
        "core.stage.hit_ratio",
        ratio(
            sum("ctrl.case1_stage_hits") + sum("ctrl.case2_commit_hits"),
            reads,
        ),
        1,
    );
    r.set(
        "compress.decompressions_per_read",
        ratio(sum("ctrl.decompressions"), reads),
        1,
    );
    let slow = sum("ctrl.slow.reads");
    r.set(
        "mem.slow.read_share",
        ratio(slow, slow + sum("ctrl.fast.reads")),
        1,
    );
}
